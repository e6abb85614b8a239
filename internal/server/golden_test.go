package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/htc-align/htc/internal/core"
)

// -update regenerates the golden fixtures from the live server:
//
//	go test ./internal/server/ -run TestV1Golden -update
var update = flag.Bool("update", false, "rewrite golden API fixtures")

// volatileKeys are response fields that legitimately differ between runs
// or hosts (ids, wall-clock, CPU budget); the golden comparison replaces
// their values with placeholders. Everything else — field names, shapes,
// orderings, numerical results — is part of the locked contract.
var volatileKeys = map[string]any{
	"id":             "<id>",
	"submitted_at":   "<time>",
	"started_at":     "<time>",
	"finished_at":    "<time>",
	"timings_ms":     "<timings>",
	"workers_used":   "<workers>",
	"queue_position": "<position>",
	"uploaded_at":    "<time>",
	"refine_ms":      "<timings>",
}

// normalize walks decoded JSON and stubs the volatile fields.
func normalize(v any) any {
	switch x := v.(type) {
	case map[string]any:
		for k, val := range x {
			if stub, ok := volatileKeys[k]; ok {
				x[k] = stub
				continue
			}
			x[k] = normalize(val)
		}
		return x
	case []any:
		for i := range x {
			x[i] = normalize(x[i])
		}
		return x
	default:
		return v
	}
}

// canonicalJSON renders a body with volatile fields stubbed and keys
// sorted, ready for byte comparison against a golden file.
func canonicalJSON(t *testing.T, blob []byte) []byte {
	t.Helper()
	var v any
	if err := json.Unmarshal(blob, &v); err != nil {
		t.Fatalf("response is not JSON: %v\n%s", err, blob)
	}
	out, err := json.MarshalIndent(normalize(v), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

func checkGolden(t *testing.T, name string, body []byte) {
	t.Helper()
	compareGolden(t, name, canonicalJSON(t, body))
}

// compareGolden compares got byte for byte with testdata/name, or
// rewrites that file under -update.
func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture %s (run with -update to create): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: response deviates from the locked v1 contract.\n--- want\n%s\n--- got\n%s", name, want, got)
	}
}

func readFixture(t *testing.T, name string) string {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// TestV1GoldenAlign locks the wire contract of POST /v1/align and GET
// /v1/jobs/{id}: the API redesign (and any future one) must not change
// what existing single-config clients see.
func TestV1GoldenAlign(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})
	body := readFixture(t, "align_request.json")

	resp, err := http.Post(ts.URL+"/v1/align", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	submitBlob, _ := readAll(resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d\n%s", resp.StatusCode, submitBlob)
	}
	checkGolden(t, "align_submit.golden", submitBlob)

	var info JobInfo
	if err := json.Unmarshal(submitBlob, &info); err != nil {
		t.Fatal(err)
	}
	waitFor(t, ts, info.ID, StatusDone)
	resp, err = http.Get(ts.URL + "/v1/jobs/" + info.ID)
	if err != nil {
		t.Fatal(err)
	}
	doneBlob, _ := readAll(resp)
	checkGolden(t, "align_job_done.golden", doneBlob)
}

// TestV1GoldenSweep locks the sweep job payload shape the same way.
func TestV1GoldenSweep(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})
	body := readFixture(t, "sweep_request.json")

	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	submitBlob, _ := readAll(resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d\n%s", resp.StatusCode, submitBlob)
	}
	var info JobInfo
	if err := json.Unmarshal(submitBlob, &info); err != nil {
		t.Fatal(err)
	}
	waitFor(t, ts, info.ID, StatusDone)
	resp, err = http.Get(ts.URL + "/v1/jobs/" + info.ID)
	if err != nil {
		t.Fatal(err)
	}
	doneBlob, _ := readAll(resp)
	checkGolden(t, "sweep_job_done.golden", doneBlob)
}

// TestV1GoldenDatasets locks the wire contract of the dataset endpoints:
// upload metadata, the list shape, and the payload of an alignment
// resolved from an uploaded dataset (named pairs included). The graph
// ids in the fixture differ between upload and list fixtures only in
// volatile fields, so the whole dataset lifecycle is covered by three
// goldens.
func TestV1GoldenDatasets(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})

	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/datasets/bridge-pair",
		bytes.NewReader([]byte(readFixture(t, "dataset_put.json"))))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	putBlob, _ := readAll(resp)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT: %d\n%s", resp.StatusCode, putBlob)
	}
	checkGolden(t, "dataset_put.golden", putBlob)

	resp, err = http.Get(ts.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	listBlob, _ := readAll(resp)
	checkGolden(t, "dataset_list.golden", listBlob)

	resp, err = http.Post(ts.URL+"/v1/align", "application/json",
		bytes.NewReader([]byte(readFixture(t, "dataset_align_request.json"))))
	if err != nil {
		t.Fatal(err)
	}
	submitBlob, _ := readAll(resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d\n%s", resp.StatusCode, submitBlob)
	}
	var info JobInfo
	if err := json.Unmarshal(submitBlob, &info); err != nil {
		t.Fatal(err)
	}
	waitFor(t, ts, info.ID, StatusDone)
	resp, err = http.Get(ts.URL + "/v1/jobs/" + info.ID)
	if err != nil {
		t.Fatal(err)
	}
	doneBlob, _ := readAll(resp)
	checkGolden(t, "dataset_align_job_done.golden", doneBlob)
}

// TestV1GoldenCapabilities locks the discovery payload: adding a backend
// or format is a deliberate fixture update, never an accident.
func TestV1GoldenCapabilities(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/capabilities")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := readAll(resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("capabilities: %d\n%s", resp.StatusCode, blob)
	}
	checkGolden(t, "capabilities.golden", blob)
}

// TestV1GoldenError locks the uniform error envelope every /v1 endpoint
// answers with: {"error":{"code","message"}}.
func TestV1GoldenError(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})
	body := `{"dataset":"synthetic","config":{"similarity":"dense","candidate_k":8}}`
	resp, err := http.Post(ts.URL+"/v1/align", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := readAll(resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("expected 400, got %d\n%s", resp.StatusCode, blob)
	}
	checkGolden(t, "error_bad_request.golden", blob)

	resp, err = http.Get(ts.URL + "/v1/jobs/nonexistent")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ = readAll(resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("expected 404, got %d\n%s", resp.StatusCode, blob)
	}
	checkGolden(t, "error_not_found.golden", blob)
}

// TestV1GoldenRefine locks the wire contract of POST /v1/refine in both
// input shapes — a finished alignment job and an uploaded name-keyed
// matching — plus the job payload of an alignment that ran the stage-6
// refinement itself (refine_mnc trace, pre-refine evaluation).
func TestV1GoldenRefine(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})

	// Job-id input: refine the matching of a finished /v1/align job.
	resp, err := http.Post(ts.URL+"/v1/align", "application/json",
		bytes.NewReader([]byte(readFixture(t, "align_request.json"))))
	if err != nil {
		t.Fatal(err)
	}
	submitBlob, _ := readAll(resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d\n%s", resp.StatusCode, submitBlob)
	}
	var info JobInfo
	if err := json.Unmarshal(submitBlob, &info); err != nil {
		t.Fatal(err)
	}
	waitFor(t, ts, info.ID, StatusDone)

	body := fmt.Sprintf(`{"job": %q, "refine_iters": 3}`, info.ID)
	resp, err = http.Post(ts.URL+"/v1/refine", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := readAll(resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("refine job: %d\n%s", resp.StatusCode, blob)
	}
	checkGolden(t, "refine_job.golden", blob)

	// Uploaded-matching input: a name-keyed matching over an uploaded
	// dataset, two of its pairs deliberately swapped.
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/datasets/bridge-pair",
		bytes.NewReader([]byte(readFixture(t, "dataset_put.json"))))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	putBlob, _ := readAll(resp)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT: %d\n%s", resp.StatusCode, putBlob)
	}
	resp, err = http.Post(ts.URL+"/v1/refine", "application/json",
		bytes.NewReader([]byte(readFixture(t, "refine_dataset_request.json"))))
	if err != nil {
		t.Fatal(err)
	}
	blob, _ = readAll(resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("refine dataset: %d\n%s", resp.StatusCode, blob)
	}
	checkGolden(t, "refine_dataset.golden", blob)

	// An alignment whose own config enables refinement reports the MNC
	// trace and the pre-refine evaluation alongside the refined one.
	resp, err = http.Post(ts.URL+"/v1/align", "application/json",
		bytes.NewReader([]byte(readFixture(t, "refine_align_request.json"))))
	if err != nil {
		t.Fatal(err)
	}
	submitBlob, _ = readAll(resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit refine align: %d\n%s", resp.StatusCode, submitBlob)
	}
	if err := json.Unmarshal(submitBlob, &info); err != nil {
		t.Fatal(err)
	}
	waitFor(t, ts, info.ID, StatusDone)
	resp, err = http.Get(ts.URL + "/v1/jobs/" + info.ID)
	if err != nil {
		t.Fatal(err)
	}
	doneBlob, _ := readAll(resp)
	checkGolden(t, "refine_align_job_done.golden", doneBlob)
}

// TestV1GoldenRefineErrors locks the 400 envelopes for the ways a refine
// request can be wrong: a job the server has never seen, a dataset that
// was never uploaded, and an out-of-range token budget.
func TestV1GoldenRefineErrors(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})
	cases := []struct {
		golden string
		body   string
	}{
		{"refine_error_unknown_job.golden", `{"job": "nonexistent"}`},
		{"refine_error_unknown_dataset.golden", `{"dataset": "never-uploaded", "matching": [["a", "x1"]]}`},
		{"refine_error_bad_token_k.golden", `{"job": "whatever", "refine_token_k": -3}`},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/v1/refine", "application/json", bytes.NewReader([]byte(c.body)))
		if err != nil {
			t.Fatal(err)
		}
		blob, _ := readAll(resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: expected 400, got %d\n%s", c.golden, resp.StatusCode, blob)
		}
		checkGolden(t, c.golden, blob)
	}
}

func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}

// TestAlignRequestConfigsRoundTrip covers the sweep field of the request
// schema: a configs list survives JSON serialisation verbatim.
func TestAlignRequestConfigsRoundTrip(t *testing.T) {
	req := AlignRequest{
		Dataset: "synthetic", N: 80, DataSeed: 3,
		Configs: []core.Config{
			{Variant: core.Full, K: 4, Epochs: 5},
			{Variant: core.DiffusionFT, DiffusionAlpha: 0.3, Binary: true},
		},
		HitsAt: []int{1, 3},
	}
	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var back AlignRequest
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req, back) {
		t.Errorf("round trip mismatch:\n in  %+v\n out %+v", req, back)
	}
}
