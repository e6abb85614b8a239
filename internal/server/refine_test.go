package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// refineBody posts a /v1/refine request and decodes the 200 payload.
func refineBody(t *testing.T, url, body string) *RefineResult {
	t.Helper()
	resp, err := http.Post(url+"/v1/refine", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := readAll(resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("refine: %d\n%s", resp.StatusCode, blob)
	}
	var out RefineResult
	if err := json.Unmarshal(blob, &out); err != nil {
		t.Fatalf("decoding refine result: %v\n%s", err, blob)
	}
	return &out
}

// TestRefineCacheAndMetrics exercises the refine result cache (a repeated
// request is served from cache, flagged Cached) and the htc_refine_*
// counters on /v1/metrics.
func TestRefineCacheAndMetrics(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})
	code, info := submit(t, ts, readFixture(t, "align_request.json"))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	waitFor(t, ts, info.ID, StatusDone)

	body := fmt.Sprintf(`{"job": %q, "refine_iters": 2}`, info.ID)
	first := refineBody(t, ts.URL, body)
	if first.Cached {
		t.Fatal("first refine flagged Cached")
	}
	if first.Iters != 2 || len(first.MNC) != 3 {
		t.Fatalf("iters = %d, MNC trace %v; want 2 iterations and a 3-entry trace", first.Iters, first.MNC)
	}
	if len(first.Pairs) == 0 {
		t.Fatal("refined matching is empty")
	}
	if first.EvalBefore == nil || first.EvalAfter == nil {
		t.Fatal("synthetic pair has full truth; expected before/after evaluations")
	}

	second := refineBody(t, ts.URL, body)
	if !second.Cached {
		t.Fatal("repeated refine was recomputed instead of cache-served")
	}
	if !jsonEqual(t, first.Pairs, second.Pairs) || !jsonEqual(t, first.MNC, second.MNC) {
		t.Fatal("cache-served refine differs from the original result")
	}

	// A different knob setting is a different cache identity.
	third := refineBody(t, ts.URL, fmt.Sprintf(`{"job": %q, "refine_iters": 3}`, info.ID))
	if third.Cached {
		t.Fatal("refine with a different iteration count hit the cache")
	}

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := readAll(resp)
	text := string(blob)
	for _, want := range []string{
		"htc_refine_runs_total 2",
		"htc_refine_iters_total 5",
		"htc_refine_cache_hits_total 1",
		"htc_refine_entries 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestRefineAlignJobCountsMetric covers the pipeline-side counter: a job
// whose config enables stage-6 refinement bumps
// htc_refined_align_runs_total.
func TestRefineAlignJobCountsMetric(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})
	code, info := submit(t, ts, readFixture(t, "refine_align_request.json"))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	done := waitFor(t, ts, info.ID, StatusDone)
	if done.Result == nil {
		t.Fatal("no result")
	}
	if len(done.Result.RefineMNC) != 4 {
		t.Fatalf("refine_mnc %v; want initial score plus 3 iterations", done.Result.RefineMNC)
	}
	if done.Result.EvalPreRefine == nil {
		t.Fatal("refined job payload is missing the pre-refine evaluation")
	}
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := readAll(resp)
	if !strings.Contains(string(blob), "htc_refined_align_runs_total 1") {
		t.Errorf("metrics output missing htc_refined_align_runs_total 1:\n%s", blob)
	}
}

// TestRefineRejectsRunningAndSweepJobs covers the job-shape 400s that the
// golden error suite doesn't: a sweep job has no single matching to
// refine.
func TestRefineRejectsSweepJobs(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json",
		strings.NewReader(readFixture(t, "sweep_request.json")))
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := readAll(resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep submit: %d\n%s", resp.StatusCode, blob)
	}
	var info JobInfo
	if err := json.Unmarshal(blob, &info); err != nil {
		t.Fatal(err)
	}
	waitFor(t, ts, info.ID, StatusDone)

	resp, err = http.Post(ts.URL+"/v1/refine", "application/json",
		strings.NewReader(fmt.Sprintf(`{"job": %q}`, info.ID)))
	if err != nil {
		t.Fatal(err)
	}
	blob, _ = readAll(resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("refining a sweep job: %d, want 400\n%s", resp.StatusCode, blob)
	}
	if !bytes.Contains(blob, []byte("sweep")) {
		t.Errorf("error message should name the sweep shape, got %s", blob)
	}
}

// TestRefineRejectsBadMatching: an uploaded matching that names an
// unknown source node, or sends one source to two targets, is a 400 that
// says so, resolved by the same name-keyed resolver as ground truth.
func TestRefineRejectsBadMatching(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/datasets/bridge-pair",
		strings.NewReader(readFixture(t, "dataset_put.json")))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if blob, _ := readAll(resp); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT: %d\n%s", resp.StatusCode, blob)
	}
	for _, tc := range []struct{ matching, want string }{
		{`[["a", "x1"], ["zz", "x2"]]`, `matching: metrics: unknown source node \"zz\"`},
		{`[["a", "x1"], ["a", "x2"]]`, `matching: metrics: source node \"a\" has conflicting anchors`},
	} {
		body := fmt.Sprintf(`{"dataset": "bridge-pair", "matching": %s}`, tc.matching)
		resp, err := http.Post(ts.URL+"/v1/refine", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		blob, _ := readAll(resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("matching %s: %d, want 400\n%s", tc.matching, resp.StatusCode, blob)
		}
		if !bytes.Contains(blob, []byte(tc.want)) {
			t.Errorf("matching %s: error %s, want it to contain %s", tc.matching, blob, tc.want)
		}
	}
}

// jsonEqual compares two values through their canonical JSON encodings.
func jsonEqual(t *testing.T, a, b any) bool {
	t.Helper()
	ab, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ab, bb)
}
