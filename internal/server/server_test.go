package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// fastBody is a request that aligns in well under a second: a small
// synthetic pair under the cheapest ablation.
func fastBody(dataSeed int64) string {
	return fmt.Sprintf(`{"dataset":"synthetic","n":60,"data_seed":%d,
		"config":{"variant":"HTC-L","epochs":3,"hidden":8,"embed":4,"m":5}}`, dataSeed)
}

func newTestServer(t *testing.T, opts Options) *httptest.Server {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts
}

func submit(t *testing.T, ts *httptest.Server, body string) (int, JobInfo) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/align", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, _ := io.ReadAll(resp.Body)
	var info JobInfo
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(blob, &info); err != nil {
			t.Fatalf("decoding %s: %v", blob, err)
		}
	}
	return resp.StatusCode, info
}

func getJob(t *testing.T, ts *httptest.Server, id string) (int, JobInfo) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info JobInfo
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, info
}

// waitFor polls the job until it reaches a terminal status, then asserts
// it is the wanted one.
func waitFor(t *testing.T, ts *httptest.Server, id string, want JobStatus) JobInfo {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		code, info := getJob(t, ts, id)
		if code != http.StatusOK {
			t.Fatalf("GET job %s: %d", id, code)
		}
		switch info.Status {
		case StatusDone, StatusFailed, StatusCancelled:
			if info.Status != want {
				t.Fatalf("job %s finished %s (err=%q), want %s", id, info.Status, info.Error, want)
			}
			return info
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return JobInfo{}
}

func TestSubmitPollResultRoundtrip(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 2})

	code, info := submit(t, ts, fastBody(7))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d, want 202", code)
	}
	if info.ID == "" || info.Status != StatusQueued {
		t.Fatalf("unexpected submit response: %+v", info)
	}

	done := waitFor(t, ts, info.ID, StatusDone)
	res := done.Result
	if res == nil {
		t.Fatal("done job carries no result")
	}
	if len(res.Pairs) == 0 {
		t.Error("result has no matched pairs")
	}
	if res.Cached {
		t.Error("first run must not be served from cache")
	}
	if res.Eval == nil || res.Eval.Anchors == 0 {
		t.Errorf("built-in dataset should be evaluated against truth, got %+v", res.Eval)
	}
	if res.Eval != nil && res.Eval.PrecisionAt[10] == 0 {
		t.Logf("note: p@10 = 0 on this tiny instance (eval=%+v)", res.Eval)
	}
	if res.EpochsTrained != 3 {
		t.Errorf("epochs_trained = %d, want 3", res.EpochsTrained)
	}
	if res.TimingsMS.Total <= 0 {
		t.Error("timings missing")
	}
	if done.StartedAt == nil || done.FinishedAt == nil {
		t.Error("timestamps missing on finished job")
	}
}

func TestInlineGraphsWithTruth(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})

	// Two identical 8-node graphs: truth is the identity.
	var edges [][2]int
	for i := 0; i < 8; i++ {
		edges = append(edges, [2]int{i, (i + 1) % 8})
	}
	edges = append(edges, [2]int{0, 4}, [2]int{1, 5})
	spec := GraphSpec{Nodes: 8, Edges: edges}
	req := map[string]any{
		"source": spec, "target": spec,
		"truth":   []int{0, 1, 2, 3, 4, 5, 6, 7},
		"hits_at": []int{1, 3},
		"config":  map[string]any{"variant": "HTC-L", "epochs": 3, "hidden": 8, "embed": 4, "m": 3},
	}
	blob, _ := json.Marshal(req)

	code, info := submit(t, ts, string(blob))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d, want 202", code)
	}
	done := waitFor(t, ts, info.ID, StatusDone)
	if done.Result.Eval == nil || done.Result.Eval.Anchors != 8 {
		t.Fatalf("want eval over 8 anchors, got %+v", done.Result.Eval)
	}
	if _, ok := done.Result.Eval.PrecisionAt[3]; !ok {
		t.Errorf("custom hits_at cutoff missing: %+v", done.Result.Eval.PrecisionAt)
	}
}

func TestCacheHitServesFromMemory(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})

	code, info := submit(t, ts, fastBody(11))
	if code != http.StatusAccepted {
		t.Fatalf("first submit: %d, want 202", code)
	}
	first := waitFor(t, ts, info.ID, StatusDone)

	code, second := submit(t, ts, fastBody(11))
	if code != http.StatusOK {
		t.Fatalf("cache-hit submit: %d, want 200", code)
	}
	if second.Status != StatusDone || second.Result == nil || !second.Result.Cached {
		t.Fatalf("cache hit should return a done job with a cached result, got %+v", second)
	}
	if second.ID == first.ID {
		t.Error("cached submission should still mint a fresh job id")
	}
	if len(second.Result.Pairs) != len(first.Result.Pairs) {
		t.Errorf("cached pairs differ: %d vs %d", len(second.Result.Pairs), len(first.Result.Pairs))
	}
	// The cached job record must be pollable like any other.
	if codeGet, polled := getJob(t, ts, second.ID); codeGet != http.StatusOK || polled.Status != StatusDone {
		t.Errorf("polling cached job: %d %+v", codeGet, polled)
	}
	// A semantically different request must miss.
	code, _ = submit(t, ts, fastBody(12))
	if code != http.StatusAccepted {
		t.Errorf("different data_seed should miss the cache, got %d", code)
	}
}

func TestBadInputs(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1, MaxNodes: 100})

	cases := []struct {
		name, body string
		want       int
	}{
		{"malformed json", `{"dataset":`, http.StatusBadRequest},
		{"unknown field", `{"dataste":"econ"}`, http.StatusBadRequest},
		{"no graphs", `{}`, http.StatusBadRequest},
		{"unknown dataset", `{"dataset":"imaginary"}`, http.StatusBadRequest},
		{"dataset and inline", `{"dataset":"econ","source":{"nodes":2},"target":{"nodes":2}}`, http.StatusBadRequest},
		{"source only", `{"source":{"nodes":2,"edges":[[0,1]]}}`, http.StatusBadRequest},
		{"edge out of range", `{"source":{"nodes":3,"edges":[[0,9]]},"target":{"nodes":3}}`, http.StatusBadRequest},
		{"negative nodes", `{"source":{"nodes":-1},"target":{"nodes":3}}`, http.StatusBadRequest},
		{"over node limit", `{"source":{"nodes":500},"target":{"nodes":3}}`, http.StatusBadRequest},
		{"n over limit", `{"dataset":"econ","n":5000}`, http.StatusBadRequest},
		{"ragged attrs", `{"source":{"nodes":2,"attrs":[[1],[1,2]]},"target":{"nodes":2}}`, http.StatusBadRequest},
		{"truth wrong length", `{"source":{"nodes":2},"target":{"nodes":2},"truth":[0]}`, http.StatusBadRequest},
		{"truth out of range", `{"source":{"nodes":2},"target":{"nodes":2},"truth":[0,5]}`, http.StatusBadRequest},
		{"truth below -1", `{"source":{"nodes":2},"target":{"nodes":2},"truth":[0,-5]}`, http.StatusBadRequest},
		{"truth -1 ok", `{"source":{"nodes":2,"edges":[[0,1]]},"target":{"nodes":2,"edges":[[0,1]]},"truth":[-1,0],"config":{"variant":"HTC-L","epochs":1,"hidden":4,"embed":2}}`, http.StatusAccepted},
		{"configs on align", `{"dataset":"synthetic","configs":[{"variant":"HTC-L"}]}`, http.StatusBadRequest},
		{"truth with dataset", `{"dataset":"econ","truth":[0]}`, http.StatusBadRequest},
		{"bad remove", `{"dataset":"econ","remove":1.5}`, http.StatusBadRequest},
		{"bad hits_at", `{"dataset":"econ","hits_at":[0]}`, http.StatusBadRequest},
		{"bad variant", `{"dataset":"econ","config":{"variant":"HTC-XXL"}}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _ := submit(t, ts, tc.body)
			if code != tc.want {
				t.Errorf("%s: got %d, want %d", tc.name, code, tc.want)
			}
		})
	}

	if code, _ := getJob(t, ts, "job-does-not-exist"); code != http.StatusNotFound {
		t.Errorf("unknown job: got %d, want 404", code)
	}
}

// TestTrailingDataRejected sends each JSON endpoint a body it accepts,
// then the same body followed by a second JSON value or a stray closing
// brace: one request body holds exactly one JSON value, on every door.
func TestTrailingDataRejected(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	light := `{"variant":"HTC-L","epochs":1,"hidden":4,"embed":2}`
	cases := []struct{ method, path, body string }{
		{http.MethodPut, "/v1/datasets/tiny", uploadBody()},
		{http.MethodPost, "/v1/align", `{"dataset":"synthetic","n":30,"config":` + light + `}`},
		{http.MethodPost, "/v1/sweep", `{"dataset":"synthetic","n":30,"configs":[` + light + `]}`},
		{http.MethodPost, "/v1/refine", `{"dataset":"tiny","matching":[["a","p"],["b","q"]]}`},
	}
	for _, tc := range cases {
		t.Run(tc.method+" "+tc.path, func(t *testing.T) {
			if code, blob := doJSON(t, ts, tc.method, tc.path, tc.body); code >= 300 {
				t.Fatalf("clean body: %d\n%s", code, blob)
			}
			for _, trailer := range []string{` {"x":1}`, `}`} {
				code, blob := doJSON(t, ts, tc.method, tc.path, tc.body+trailer)
				var env ErrorBody
				if err := json.Unmarshal(blob, &env); err != nil {
					t.Fatalf("trailer %q: decoding %s: %v", trailer, blob, err)
				}
				if code != http.StatusBadRequest || env.Error.Code != "bad_request" ||
					env.Error.Message != "trailing data after request body" {
					t.Errorf("trailer %q: %d %+v, want 400 bad_request \"trailing data after request body\"", trailer, code, env.Error)
				}
			}
		})
	}
}

// TestOversizedBodyRejected: a body over Options.MaxBodyBytes is a 413,
// not a malformed-JSON 400, however far the decoder got.
func TestOversizedBodyRejected(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1, MaxBodyBytes: 64})
	body := `{"dataset":"synthetic","n":30,"config":{"variant":"HTC-L","epochs":1,"hidden":4,"embed":2}}`
	code, blob := doJSON(t, ts, http.MethodPost, "/v1/align", body)
	var env ErrorBody
	if err := json.Unmarshal(blob, &env); err != nil {
		t.Fatalf("decoding %s: %v", blob, err)
	}
	if code != http.StatusRequestEntityTooLarge || env.Error.Message != "body exceeds 64 bytes" {
		t.Fatalf("%d %+v, want 413 \"body exceeds 64 bytes\"", code, env.Error)
	}
}

func TestCancelViaHTTP(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})

	// An effectively unbounded run: 100k epochs would take minutes.
	slow := `{"dataset":"synthetic","n":150,
		"config":{"variant":"HTC-L","epochs":100000,"hidden":8,"embed":4}}`
	code, info := submit(t, ts, slow)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+info.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: %d, want 202", resp.StatusCode)
	}
	waitFor(t, ts, info.ID, StatusCancelled)

	// The released worker must pick up new work.
	code, next := submit(t, ts, fastBody(21))
	if code != http.StatusAccepted {
		t.Fatalf("post-cancel submit: %d", code)
	}
	waitFor(t, ts, next.ID, StatusDone)
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 3})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	var health struct {
		Status   string   `json:"status"`
		Workers  int      `json:"workers"`
		Datasets []string `json:"datasets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Workers != 3 || len(health.Datasets) == 0 {
		t.Errorf("unexpected health payload: %+v", health)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})

	code, info := submit(t, ts, fastBody(31))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	waitFor(t, ts, info.ID, StatusDone)
	if code, _ := submit(t, ts, fastBody(31)); code != http.StatusOK {
		t.Fatalf("cache hit expected, got %d", code)
	}

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"htc_jobs_submitted_total 1",
		"htc_jobs_completed_total 1",
		"htc_cache_hits_total 1",
		"htc_cache_misses_total 1",
		"htc_workers 1",
		"htc_uptime_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/align")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/align: %d, want 405", resp.StatusCode)
	}
}
