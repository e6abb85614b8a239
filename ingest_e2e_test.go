package htc_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	htc "github.com/htc-align/htc"
	"github.com/htc-align/htc/internal/server"
)

// The shared real-data fixture of the consistency test: a SNAP-style
// edge-list pair keyed by unrelated string ids plus ID-keyed truth.
const (
	e2eSource = "a b\na c\nb c\nc d\nd e\ne f\nf g\ng h\nh i\ni j\nd g\nb e\n"
	e2eTarget = "x2 x1\nx1 x3\nx2 x3\nx3 x4\nx4 x5\nx5 x6\nx6 x7\nx7 x8\nx8 x9\nx9 x10\nx4 x7\nx2 x5\n"
	e2eTruth  = "a x1\nb x2\nc x3\nd x4\ne x5\nf x6\ng x7\nh x8\ni x9\nj x10\n"
)

// e2eConfigJSON is the one configuration document every way of aligning
// the fixture runs: htc.ParseConfig decodes it for the Go API ways, as
// htc-align -config does, and the server requests embed it verbatim.
const e2eConfigJSON = `{"variant":"HTC-L","epochs":3,"hidden":8,"embed":4,"m":5}`

// awaitJob reads a job submission's response and polls the job until it
// finishes, failing the test if the job fails or outlives the deadline.
func awaitJob(t *testing.T, base string, resp *http.Response) server.JobInfo {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var info server.JobInfo
		err := json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		switch {
		case err != nil:
			t.Fatal(err)
		case info.Status == server.StatusDone:
			return info
		case info.Status == server.StatusFailed || time.Now().After(deadline):
			t.Fatalf("server job %s: %s (%s)", info.ID, info.Status, info.Error)
		}
		time.Sleep(20 * time.Millisecond)
		if resp, err = http.Get(base + "/v1/jobs/" + info.ID); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRealDataThreeWayConsistency locks the acceptance criterion of the
// ingestion API: the same SNAP-style pair with ID-keyed truth aligned
// three ways — the one-shot Go API (htc.LoadPair + Align), the staged
// path the htc-align CLI runs (Prepare + Align + LoadTruthFile), and a
// server dataset upload followed by a {"dataset": id} align — must
// report identical Hits@1. All three run one config document, and a
// one-entry sweep of it must echo the same normalised Config.
func TestRealDataThreeWayConsistency(t *testing.T) {
	dir := t.TempDir()
	write := func(name, data string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	srcPath := write("s.edges", e2eSource)
	tgtPath := write("t.edges", e2eTarget)
	truthPath := write("truth.tsv", e2eTruth)
	cfg, err := htc.ParseConfig(e2eConfigJSON)
	if err != nil {
		t.Fatal(err)
	}

	// Way 1: one-shot Go API.
	pair, err := htc.LoadPair(srcPath, tgtPath, htc.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	truth, err := htc.LoadTruthFile(truthPath, pair.SourceIDs, pair.TargetIDs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := htc.Align(pair.Source, pair.Target, cfg)
	if err != nil {
		t.Fatal(err)
	}
	apiHits := htc.EvaluateSim(res.Sim, truth, 1).PrecisionAt[1]

	// The predictions must come back under the files' own ids.
	names := res.PredictNames(pair.SourceIDs, pair.TargetIDs)
	if len(names) != pair.Source.N() {
		t.Fatalf("PredictNames returned %d pairs for %d nodes", len(names), pair.Source.N())
	}
	for _, p := range names {
		if _, ok := pair.SourceIDs.Index(p[0]); !ok {
			t.Fatalf("prediction %v names an unknown source id", p)
		}
		if _, ok := pair.TargetIDs.Index(p[1]); !ok {
			t.Fatalf("prediction %v names an unknown target id", p)
		}
	}

	// Way 2: the staged path htc-align runs (Prepare once, Align per
	// variant).
	prep, err := htc.Prepare(pair.Source, pair.Target)
	if err != nil {
		t.Fatal(err)
	}
	stagedRes, err := prep.Align(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stagedHits := htc.EvaluateSim(stagedRes.Sim, truth, 1).PrecisionAt[1]

	// Way 3: dataset upload + {"dataset": id} align on the server.
	s := server.New(server.Options{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	upload, _ := json.Marshal(map[string]any{
		"format": "edgelist", "source": e2eSource, "target": e2eTarget, "truth": e2eTruth,
	})
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/datasets/e2e", strings.NewReader(string(upload)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("dataset upload: %d", resp.StatusCode)
	}

	body := `{"dataset":"e2e","config":` + e2eConfigJSON + `}`
	resp, err = http.Post(ts.URL+"/v1/align", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	info := awaitJob(t, ts.URL, resp)
	if info.Result == nil || info.Result.Eval == nil {
		t.Fatalf("server result lacks evaluation: %+v", info.Result)
	}
	serverHits := info.Result.Eval.PrecisionAt[1]

	if apiHits != stagedHits || apiHits != serverHits {
		t.Fatalf("Hits@1 disagrees across the three ways: api=%v staged=%v server=%v",
			apiHits, stagedHits, serverHits)
	}
	if len(info.Result.PairsNamed) == 0 {
		t.Fatal("server result lacks named pairs")
	}
	// Spot-check that the server's named matching speaks the uploaded ids.
	for _, p := range info.Result.PairsNamed {
		if !strings.HasPrefix(p[1], "x") {
			t.Fatalf("server named pair %v does not use the uploaded target ids", p)
		}
	}

	// The sweep endpoint decodes the same document into the Config it
	// echoes: ParseConfig's result, normalised as the server's cache key
	// normalises it (defaults applied, worker budget stripped).
	body = `{"dataset":"e2e","configs":[` + e2eConfigJSON + `]}`
	resp, err = http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	sweep := awaitJob(t, ts.URL, resp).Sweep
	if sweep == nil || len(sweep.Results) != 1 {
		t.Fatalf("sweep result = %+v, want one entry", sweep)
	}
	want := cfg.WithDefaults()
	want.Workers = 0
	if got := sweep.Results[0].Config; !reflect.DeepEqual(got, want) {
		t.Fatalf("sweep echoed config %+v, want ParseConfig's %+v", got, want)
	}
	t.Logf("hits@1 = %v across API, staged CLI path and server", apiHits)
}

// TestLoadPairFormatsAgree loads the same graph through all four formats
// and checks the built structures agree (the format layer must be pure
// representation).
func TestLoadPairFormatsAgree(t *testing.T) {
	b := htc.NewBuilder(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {4, 5}} {
		b.AddEdge(e[0], e[1])
	}
	g := b.Build()
	for _, format := range []string{"htc-graph", "json", "adjlist", "edgelist"} {
		var buf strings.Builder
		if err := htc.WriteGraphAs(&buf, g, nil, format); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		loaded, err := htc.Load(strings.NewReader(buf.String()), htc.LoadOptions{})
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if loaded.Format != format {
			t.Errorf("%s sniffed as %s", format, loaded.Format)
		}
		if loaded.Graph.N() != g.N() || loaded.Graph.NumEdges() != g.NumEdges() {
			t.Errorf("%s drifted: %v vs %v", format, loaded.Graph, g)
		}
		if fmt.Sprint(htc.CountEdgeOrbits(loaded.Graph)) != fmt.Sprint(htc.CountEdgeOrbits(g)) {
			t.Errorf("%s orbit signatures drifted", format)
		}
	}
}
