package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzAlignAdmission drives the one admission path POST /v1/align and
// POST /v1/sweep share with arbitrary bodies, each admitted as both
// endpoint kinds: admission never panics, and it either refuses a body
// with a 4xx or admits it with exactly one result-cache key per entry.
// Only admission runs; nothing is queued.
func FuzzAlignAdmission(f *testing.F) {
	fixture := func(name string) []byte {
		blob, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		return blob
	}
	for _, name := range []string{"align_request.json", "sweep_request.json", "dataset_align_request.json", "refine_align_request.json"} {
		f.Add(fixture(name))
	}
	s := New(Options{Workers: 1})
	f.Cleanup(s.Close)
	// Upload the dataset the dataset seed names, so admission resolves it.
	put := httptest.NewRecorder()
	s.ServeHTTP(put, httptest.NewRequest(http.MethodPut, "/v1/datasets/bridge-pair", bytes.NewReader(fixture("dataset_put.json"))))
	if put.Code != http.StatusCreated {
		f.Fatalf("fixture upload: %d %s", put.Code, put.Body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, sweep := range []bool{false, true} {
			w := httptest.NewRecorder()
			req := s.admit(w, httptest.NewRequest(http.MethodPost, "/v1/align", bytes.NewReader(body)), sweep)
			switch {
			case req == nil:
				if w.Code < 400 || w.Code > 499 {
					t.Fatalf("sweep=%v: refused with %d, want a 4xx", sweep, w.Code)
				}
			case !sweep && len(req.entries) != 1, sweep && (len(req.entries) == 0 || len(req.entries) != len(req.Configs)):
				t.Fatalf("sweep=%v: admitted %d entries for %d configs", sweep, len(req.entries), len(req.Configs))
			case len(req.keys) != len(req.entries) || slices.Contains(req.keys, ""):
				t.Fatalf("sweep=%v: admitted %d entries with keys %q", sweep, len(req.entries), req.keys)
			}
		}
	})
}
