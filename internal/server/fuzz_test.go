package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
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

// FuzzDatasetPut sends arbitrary ids and bodies through PUT
// /v1/datasets/{id} on an in-process server: every answer is a 2xx or a
// 4xx, and nothing panics. It is seeded with the upload fixture and one
// upload per ingest format (each format's sample document as both
// graphs). Every byte of the id is percent-encoded, so any id reaches the
// handler as one path segment.
func FuzzDatasetPut(f *testing.F) {
	blob, err := os.ReadFile(filepath.Join("testdata", "dataset_put.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add("bridge-pair", blob)
	for _, format := range []string{"adjlist", "edgelist", "htc-graph", "json"} {
		doc, err := os.ReadFile(filepath.Join("..", "ingest", "testdata", "sample."+format))
		if err != nil {
			f.Fatal(err)
		}
		body, err := json.Marshal(DatasetUpload{Format: format, Source: string(doc), Target: string(doc)})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(format+"-pair", body)
	}
	// A small node limit keeps every input cheap; the limit's refusal is
	// one more 4xx path.
	s := New(Options{Workers: 1, MaxNodes: 1000})
	f.Cleanup(s.Close)
	f.Fuzz(func(t *testing.T, id string, body []byte) {
		var path strings.Builder
		path.WriteString("/v1/datasets/")
		for i := 0; i < len(id); i++ {
			fmt.Fprintf(&path, "%%%02X", id[i])
		}
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPut, path.String(), bytes.NewReader(body)))
		if w.Code < 200 || w.Code > 299 && w.Code < 400 || w.Code > 499 {
			t.Fatalf("PUT id %q: answered %d %s, want a 2xx or a 4xx", id, w.Code, w.Body)
		}
	})
}
