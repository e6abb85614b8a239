package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// doJSON issues a request with a JSON body and returns status + body.
func doJSON(t *testing.T, ts *httptest.Server, method, path, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := readAll(resp)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, blob
}

// uploadBody is a minimal valid dataset upload used across tests.
func uploadBody() string {
	return `{"format":"edgelist",
		"source":"a b\nb c\nc a\nc d\n",
		"target":"p q\nq r\nr p\nr s\n",
		"truth":"a p\nb q\nc r\nd s\n"}`
}

func TestDatasetLifecycle(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})

	code, blob := doJSON(t, ts, http.MethodPut, "/v1/datasets/tiny", uploadBody())
	if code != http.StatusCreated {
		t.Fatalf("first PUT: %d\n%s", code, blob)
	}
	var info DatasetInfo
	if err := json.Unmarshal(blob, &info); err != nil {
		t.Fatal(err)
	}
	if info.ID != "tiny" || info.Source.Nodes != 4 || info.Source.Edges != 4 ||
		info.Target.Nodes != 4 || info.Anchors != 4 || info.Source.Format != "edgelist" {
		t.Fatalf("upload info: %+v", info)
	}
	if info.PairHash == "" || info.ContentHash == "" {
		t.Fatalf("hashes missing: %+v", info)
	}

	// Replacement answers 200 and refreshes the entry.
	if code, blob = doJSON(t, ts, http.MethodPut, "/v1/datasets/tiny", uploadBody()); code != http.StatusOK {
		t.Fatalf("replace PUT: %d\n%s", code, blob)
	}

	code, blob = doJSON(t, ts, http.MethodGet, "/v1/datasets/tiny", "")
	if code != http.StatusOK {
		t.Fatalf("GET: %d\n%s", code, blob)
	}

	code, blob = doJSON(t, ts, http.MethodGet, "/v1/datasets", "")
	if code != http.StatusOK || !bytes.Contains(blob, []byte(`"tiny"`)) || !bytes.Contains(blob, []byte(`"synthetic"`)) {
		t.Fatalf("list: %d\n%s", code, blob)
	}

	if code, _ = doJSON(t, ts, http.MethodDelete, "/v1/datasets/tiny", ""); code != http.StatusOK {
		t.Fatalf("DELETE: %d", code)
	}
	if code, _ = doJSON(t, ts, http.MethodGet, "/v1/datasets/tiny", ""); code != http.StatusNotFound {
		t.Fatalf("GET after delete: %d", code)
	}
	if code, _ = doJSON(t, ts, http.MethodDelete, "/v1/datasets/tiny", ""); code != http.StatusNotFound {
		t.Fatalf("second DELETE: %d", code)
	}
}

func TestDatasetUploadValidation(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1, MaxNodes: 5})
	cases := []struct {
		name, id, body string
		wantCode       int
	}{
		{"shadows builtin", "douban", uploadBody(), http.StatusBadRequest},
		{"bad id chars", "bad*id", uploadBody(), http.StatusBadRequest},
		{"id too long", strings.Repeat("x", 65), uploadBody(), http.StatusBadRequest},
		{"missing target", "d1", `{"source":"a b\n"}`, http.StatusBadRequest},
		{"unknown format", "d1", `{"format":"parquet","source":"a b\n","target":"a b\n"}`, http.StatusBadRequest},
		{"bad truth id", "d1", `{"source":"a b\n","target":"p q\n","truth":"zz p\n"}`, http.StatusBadRequest},
		{"over max nodes", "d1", `{"source":"a b\nb c\nc d\nd e\ne f\nf g\n","target":"p q\n"}`, http.StatusBadRequest},
		{"strict self-loop", "d1", `{"strict":true,"source":"a a\n","target":"p q\n"}`, http.StatusBadRequest},
		{"malformed json", "d1", `{"source": `, http.StatusBadRequest},
		// A header-claimed attribute dimension must not commit memory:
		// the upload path caps MaxAttrDim before dense.New runs.
		{"huge attr claim", "d1", `{"format":"htc-graph","source":"htc-graph 3 0 100000000\n","target":"p q\n"}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		if code, blob := doJSON(t, ts, http.MethodPut, "/v1/datasets/"+c.id, c.body); code != c.wantCode {
			t.Errorf("%s: got %d, want %d\n%s", c.name, code, c.wantCode, blob)
		}
	}
}

// TestDatasetDotSegmentIDs: "." and ".." are dot segments that clients
// and the mux remove from a plain path, so a dataset under either id
// would be reachable only percent-encoded. Both are rejected with the
// standard 400 and never listed.
func TestDatasetDotSegmentIDs(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})
	for _, path := range []string{"/v1/datasets/%2E%2E", "/v1/datasets/%2E"} {
		code, blob := doJSON(t, ts, http.MethodPut, path, uploadBody())
		if code != http.StatusBadRequest || !bytes.Contains(blob, []byte("dot segment")) {
			t.Errorf("PUT %s: %d, want 400 naming the dot segment\n%s", path, code, blob)
		}
	}
	code, blob := doJSON(t, ts, http.MethodGet, "/v1/datasets", "")
	if code != http.StatusOK {
		t.Fatalf("list: %d\n%s", code, blob)
	}
	var list struct{ Uploaded []DatasetInfo }
	if err := json.Unmarshal(blob, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Uploaded) != 0 {
		t.Errorf("rejected ids listed: %+v", list.Uploaded)
	}
}

// TestDatasetAlignEndToEnd uploads a named pair, aligns it by dataset id,
// and checks that evaluation ran against the uploaded truth and the
// matching is reported by node name.
func TestDatasetAlignEndToEnd(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})
	if code, blob := doJSON(t, ts, http.MethodPut, "/v1/datasets/tiny", uploadBody()); code != http.StatusCreated {
		t.Fatalf("PUT: %d\n%s", code, blob)
	}

	body := `{"dataset":"tiny","config":{"variant":"HTC-L","epochs":3,"hidden":8,"embed":4,"m":5}}`
	code, info := submit(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	done := waitFor(t, ts, info.ID, StatusDone)
	res := done.Result
	if res == nil {
		t.Fatal("no result")
	}
	if res.Eval == nil || res.Eval.Anchors != 4 {
		t.Fatalf("eval missing or wrong anchors: %+v", res.Eval)
	}
	if len(res.PairsNamed) != len(res.Pairs) || len(res.Pairs) == 0 {
		t.Fatalf("named pairs missing: %+v vs %+v", res.PairsNamed, res.Pairs)
	}
	for _, p := range res.PairsNamed {
		if !strings.ContainsAny(p[0], "abcd") || !strings.ContainsAny(p[1], "pqrs") {
			t.Fatalf("unexpected names in %v", p)
		}
	}

	// The same content under another id must hit the result cache: the
	// cache key is the upload's content hash, not its name.
	if code, blob := doJSON(t, ts, http.MethodPut, "/v1/datasets/other", uploadBody()); code != http.StatusCreated {
		t.Fatalf("PUT other: %d\n%s", code, blob)
	}
	code, info = submit(t, ts, `{"dataset":"other","config":{"variant":"HTC-L","epochs":3,"hidden":8,"embed":4,"m":5}}`)
	if code != http.StatusOK {
		t.Fatalf("resubmission under new id: %d, want cached 200", code)
	}
	if info.Result == nil || !info.Result.Cached {
		t.Fatalf("expected cached result, got %+v", info.Result)
	}

	// Generator knobs and request truth don't apply to uploads.
	for _, bad := range []string{
		`{"dataset":"tiny","n":50}`,
		`{"dataset":"tiny","remove":0.2}`,
		`{"dataset":"tiny","data_seed":7}`,
		`{"dataset":"tiny","truth":[0,1,2,3]}`,
	} {
		if code, _ := submit(t, ts, bad); code != http.StatusBadRequest {
			t.Errorf("%s: got %d, want 400", bad, code)
		}
	}
}

// TestDatasetContentHashCoversNames locks the result-cache identity of
// uploads: structurally identical graphs with different node names must
// NOT share a content hash, or one dataset's cached pairs_named would be
// served for the other.
func TestDatasetContentHashCoversNames(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})
	renamed := `{"format":"edgelist",
		"source":"n1 n2\nn2 n3\nn3 n1\nn3 n4\n",
		"target":"m1 m2\nm2 m3\nm3 m1\nm3 m4\n",
		"truth":"n1 m1\nn2 m2\nn3 m3\nn4 m4\n"}`
	var a, b DatasetInfo
	_, blob := doJSON(t, ts, http.MethodPut, "/v1/datasets/orig", uploadBody())
	if err := json.Unmarshal(blob, &a); err != nil {
		t.Fatal(err)
	}
	_, blob = doJSON(t, ts, http.MethodPut, "/v1/datasets/renamed", renamed)
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	if a.PairHash != b.PairHash {
		t.Fatalf("structural pair hashes should agree: %s vs %s", a.PairHash, b.PairHash)
	}
	if a.ContentHash == b.ContentHash {
		t.Fatal("content hashes collide across different node names")
	}
}

// TestDatasetSweepSharesStore runs a sweep against an uploaded dataset.
func TestDatasetSweepSharesStore(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})
	if code, blob := doJSON(t, ts, http.MethodPut, "/v1/datasets/tiny", uploadBody()); code != http.StatusCreated {
		t.Fatalf("PUT: %d\n%s", code, blob)
	}
	body := `{"dataset":"tiny","configs":[
		{"variant":"HTC-L","epochs":2,"hidden":8,"embed":4,"m":5},
		{"variant":"HTC-LT","epochs":2,"hidden":8,"embed":4,"m":5}]}`
	code, blob := doJSON(t, ts, http.MethodPost, "/v1/sweep", body)
	if code != http.StatusAccepted {
		t.Fatalf("sweep submit: %d\n%s", code, blob)
	}
	var info JobInfo
	if err := json.Unmarshal(blob, &info); err != nil {
		t.Fatal(err)
	}
	done := waitFor(t, ts, info.ID, StatusDone)
	if done.Sweep == nil || len(done.Sweep.Results) != 2 {
		t.Fatalf("sweep payload: %+v", done.Sweep)
	}
	for i, entry := range done.Sweep.Results {
		if entry.Error != "" || entry.Result == nil {
			t.Fatalf("entry %d: %+v", i, entry)
		}
		if entry.Result.Eval == nil || len(entry.Result.PairsNamed) == 0 {
			t.Fatalf("entry %d lacks eval/named pairs: %+v", i, entry.Result)
		}
	}
}

// TestDatasetEviction checks the LRU bound and that an align job keeps
// working on a dataset deleted after submission (the pair is memoised at
// admission).
func TestDatasetEviction(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1, DatasetCacheSize: 2})
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("d%d", i)
		if code, blob := doJSON(t, ts, http.MethodPut, "/v1/datasets/"+id, uploadBody()); code != http.StatusCreated {
			t.Fatalf("PUT %s: %d\n%s", id, code, blob)
		}
	}
	if code, _ := doJSON(t, ts, http.MethodGet, "/v1/datasets/d0", ""); code != http.StatusNotFound {
		t.Fatalf("d0 survived eviction: %d", code)
	}
	if code, _ := doJSON(t, ts, http.MethodGet, "/v1/datasets/d2", ""); code != http.StatusOK {
		t.Fatalf("d2 evicted: %d", code)
	}
	// Submitting then deleting must not strand the job.
	code, info := submit(t, ts, `{"dataset":"d2","config":{"variant":"HTC-L","epochs":2,"hidden":8,"embed":4,"m":5}}`)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit: %d", code)
	}
	doJSON(t, ts, http.MethodDelete, "/v1/datasets/d2", "")
	if code == http.StatusAccepted {
		waitFor(t, ts, info.ID, StatusDone)
	}
}

// TestInlineTruthPairs covers the name-keyed truth of inline requests
// whose specs carry ids.
func TestInlineTruthPairs(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})
	body := `{
		"source": {"nodes": 3, "edges": [[0,1],[1,2]], "ids": ["a","b","c"]},
		"target": {"nodes": 3, "edges": [[0,1],[1,2]], "ids": ["x","y","z"]},
		"truth_pairs": [["a","x"],["b","y"],["c","z"]],
		"config": {"variant":"HTC-L","epochs":2,"hidden":8,"embed":4,"m":5}}`
	code, info := submit(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	done := waitFor(t, ts, info.ID, StatusDone)
	if done.Result == nil || done.Result.Eval == nil || done.Result.Eval.Anchors != 3 {
		t.Fatalf("eval: %+v", done.Result)
	}
	if len(done.Result.PairsNamed) == 0 {
		t.Fatalf("named pairs missing: %+v", done.Result)
	}

	for _, bad := range []string{
		`{"source": {"nodes": 2, "edges": [[0,1]], "ids": ["a","b"]},
		  "target": {"nodes": 2, "edges": [[0,1]]},
		  "truth_pairs": [["a","nope"]], "config": {}}`,
		`{"source": {"nodes": 2, "edges": [[0,1]]},
		  "target": {"nodes": 2, "edges": [[0,1]]},
		  "truth": [0,1], "truth_pairs": [["0","0"]], "config": {}}`,
	} {
		if code, _ := submit(t, ts, bad); code != http.StatusBadRequest {
			t.Errorf("accepted bad truth_pairs request (%d): %s", code, bad)
		}
	}
}
