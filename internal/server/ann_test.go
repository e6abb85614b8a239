package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

// annBody is topkBody swapped onto the ANN backend with explicit LSH
// knobs.
func annBody(dataSeed int64, k, bits, probes int) string {
	return fmt.Sprintf(`{"dataset":"synthetic","n":60,"data_seed":%d,
		"config":{"variant":"HTC-L","epochs":3,"hidden":8,"embed":4,"m":5,
		"similarity":"ann","candidate_k":%d,"ann_bits":%d,"ann_probes":%d}}`,
		dataSeed, k, bits, probes)
}

// TestAlignAnnJob: an ann job reports its backend and resolved LSH
// parameters in the result and stays functional end to end.
func TestAlignAnnJob(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})
	code, info := submit(t, ts, annBody(41, 10, 5, 8))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	info = waitFor(t, ts, info.ID, StatusDone)
	res := info.Result
	if res == nil {
		t.Fatal("no result payload")
	}
	if res.SimBackend != "ann" || res.CandidateK != 10 || res.AnnBits != 5 || res.AnnProbes != 8 {
		t.Fatalf("got backend=%q k=%d bits=%d probes=%d, want ann/10/5/8",
			res.SimBackend, res.CandidateK, res.AnnBits, res.AnnProbes)
	}
	if len(res.Pairs) == 0 {
		t.Fatal("no matched pairs")
	}
	if res.Eval == nil || res.Eval.Anchors == 0 {
		t.Fatal("no evaluation against the dataset's ground truth")
	}
	if res.Ann == nil {
		t.Fatal("ann job carries no ann_stats block")
	}
	if res.Ann.Fits <= 0 || res.Ann.RowsHashed <= 0 || res.Ann.Queries <= 0 || res.Ann.PoolRowsMean <= 0 {
		t.Fatalf("empty ann_stats: %+v", res.Ann)
	}
	if res.Ann.Buckets != 1<<5 {
		t.Fatalf("ann_stats buckets = %d, want %d", res.Ann.Buckets, 1<<5)
	}
}

// TestAnnExactHatchMatchesTopK: a full-probe ann job and the equivalent
// topk job produce identical matchings and evaluations — the server-level
// view of the exactness escape hatch — while occupying distinct cache
// entries.
func TestAnnExactHatchMatchesTopK(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})
	_, tk := submit(t, ts, topkBody(42, 10))
	tkInfo := waitFor(t, ts, tk.ID, StatusDone)
	code, an := submit(t, ts, annBody(42, 10, 4, 16)) // 16 = 2^4: exact
	if code != http.StatusAccepted {
		t.Fatalf("ann submission served from the topk cache entry (code %d)", code)
	}
	anInfo := waitFor(t, ts, an.ID, StatusDone)

	tr, ar := tkInfo.Result, anInfo.Result
	if len(tr.Pairs) != len(ar.Pairs) {
		t.Fatalf("pair counts differ: topk %d, ann %d", len(tr.Pairs), len(ar.Pairs))
	}
	for i := range tr.Pairs {
		if tr.Pairs[i] != ar.Pairs[i] {
			t.Fatalf("pair %d differs: topk %v, ann %v", i, tr.Pairs[i], ar.Pairs[i])
		}
	}
	if tr.Eval.MRR != ar.Eval.MRR {
		t.Fatalf("MRR differs: topk %v, ann %v", tr.Eval.MRR, ar.Eval.MRR)
	}
}

// TestRejectIgnoredSimKnobs: knobs the resolved backend would ignore are
// a 400 at admission with the uniform error envelope.
func TestRejectIgnoredSimKnobs(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})
	cases := []struct {
		name, config string
	}{
		{"candidate_k under dense", `{"similarity":"dense","candidate_k":8}`},
		{"ann_bits under topk", `{"similarity":"topk","ann_bits":6}`},
		{"ann_probes under dense", `{"similarity":"dense","ann_probes":4}`},
		{"ann_bits out of range", `{"similarity":"ann","ann_bits":99}`},
		{"negative ann_probes", `{"similarity":"ann","ann_probes":-1}`},
		{"ann_pool_cap under topk", `{"similarity":"topk","ann_pool_cap":64}`},
		{"negative ann_pool_cap", `{"similarity":"ann","ann_pool_cap":-1}`},
	}
	for _, tc := range cases {
		body := fmt.Sprintf(`{"dataset":"synthetic","n":60,"config":%s}`, tc.config)
		resp, err := http.Post(ts.URL+"/v1/align", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		blob, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: %d (%s), want 400", tc.name, resp.StatusCode, blob)
		}
		var envelope ErrorBody
		if err := json.Unmarshal(blob, &envelope); err != nil {
			t.Fatalf("%s: response is not the error envelope: %v\n%s", tc.name, err, blob)
		}
		if envelope.Error.Code != "bad_request" || envelope.Error.Message == "" {
			t.Fatalf("%s: envelope %+v", tc.name, envelope)
		}
	}
}

// TestAnnPrometheusCounters: ann runs are tallied, and full-probe runs
// additionally count as exact.
func TestAnnPrometheusCounters(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})
	_, a := submit(t, ts, annBody(43, 10, 5, 8))
	waitFor(t, ts, a.ID, StatusDone)
	_, b := submit(t, ts, annBody(43, 10, 4, 16))
	waitFor(t, ts, b.ID, StatusDone)

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, _ := io.ReadAll(resp.Body)
	text := string(blob)
	for _, want := range []string{"htc_sim_ann_runs_total 2", "htc_sim_ann_exact_runs_total 1"} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
	// The pool-rows counter exists and accumulated work: both runs
	// re-ranked candidate pools, so it must be positive (its exact value
	// depends on the probe sequence).
	const pool = "htc_sim_ann_pool_rows"
	if !strings.Contains(text, "# TYPE "+pool+" counter") {
		t.Fatalf("metrics missing counter %s:\n%s", pool, text)
	}
	if strings.Contains(text, pool+" 0\n") {
		t.Fatalf("%s never accumulated:\n%s", pool, text)
	}
	// Every fit recodes every row, so there is no refit reuse to count.
	if strings.Contains(text, "htc_sim_ann_refit_reuse_total") {
		t.Fatalf("metrics still carry the refit reuse counter:\n%s", text)
	}
}

// TestCapabilities: the discovery endpoint names every backend with its
// knobs, the ingest formats and the variant roster.
func TestCapabilities(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/capabilities")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("capabilities: %d", resp.StatusCode)
	}
	var caps Capabilities
	if err := json.NewDecoder(resp.Body).Decode(&caps); err != nil {
		t.Fatal(err)
	}
	names := make(map[string][]string, len(caps.SimilarityBackends))
	for _, b := range caps.SimilarityBackends {
		names[b.Name] = b.Knobs
	}
	if _, ok := names["ann"]; !ok {
		t.Fatalf("ann backend missing from %v", caps.SimilarityBackends)
	}
	for _, knob := range []string{"candidate_k", "ann_bits", "ann_probes", "ann_pool_cap"} {
		if !contains(names["ann"], knob) {
			t.Fatalf("ann backend does not advertise %s: %v", knob, names["ann"])
		}
	}
	if len(names["dense"]) != 0 {
		t.Fatalf("dense backend advertises knobs %v", names["dense"])
	}
	if len(caps.IngestFormats) == 0 || len(caps.Variants) == 0 || len(caps.Datasets) == 0 {
		t.Fatalf("incomplete capabilities: %+v", caps)
	}
	if caps.MaxSweepConfigs != MaxSweepConfigs {
		t.Fatalf("max_sweep_configs = %d", caps.MaxSweepConfigs)
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}
