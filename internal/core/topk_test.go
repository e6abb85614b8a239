package core

import (
	"errors"
	"testing"

	"github.com/htc-align/htc/internal/align"
	"github.com/htc-align/htc/internal/datasets"
	"github.com/htc-align/htc/internal/metrics"
)

// TestAlignTopKEquivalence is the pipeline-level proof of the backend
// abstraction: a full run under the top-k backend with k = n must be
// bit-identical to the dense run — same per-orbit trusted counts and
// weights, same final scores on every pair, same predictions, matching
// and evaluation.
func TestAlignTopKEquivalence(t *testing.T) {
	n := 40
	gs, gt, truth := noisyPair(n, 0.1, 3)

	cfg := quickConfig(Full)
	denseRes, err := Align(gs, gt, cfg)
	if err != nil {
		t.Fatal(err)
	}

	topkCfg := cfg
	topkCfg.Similarity = SimTopK
	topkCfg.CandidateK = n
	topkRes, err := Align(gs, gt, topkCfg)
	if err != nil {
		t.Fatal(err)
	}

	if denseRes.SimBackend != "dense" || topkRes.SimBackend != "topk" {
		t.Fatalf("backends %q / %q", denseRes.SimBackend, topkRes.SimBackend)
	}
	if topkRes.CandidateK != n {
		t.Fatalf("candidate k = %d, want %d", topkRes.CandidateK, n)
	}
	if _, ok := topkRes.Sim.(*align.TopKSim); !ok {
		t.Fatal("top-k run must hold its scores as a candidate list, not a dense matrix")
	}
	if denseRes.Sim == nil {
		t.Fatal("dense result representation missing")
	}

	for i := range denseRes.PerOrbit {
		d, s := denseRes.PerOrbit[i], topkRes.PerOrbit[i]
		if d.Trusted != s.Trusted || d.Gamma != s.Gamma || d.Iters != s.Iters {
			t.Fatalf("orbit %d: dense %+v vs topk %+v", i, d, s)
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := denseRes.Sim.Dense().At(i, j)
			got, ok := topkRes.Sim.At(i, j)
			if !ok || got != want {
				t.Fatalf("score (%d,%d): dense %v, topk %v (ok=%v)", i, j, want, got, ok)
			}
		}
	}
	dp, tp := denseRes.Predict(), topkRes.Predict()
	for i := range dp {
		if dp[i] != tp[i] {
			t.Fatalf("predict[%d]: dense %d, topk %d", i, dp[i], tp[i])
		}
	}
	dm := align.GreedyMatch(denseRes.Sim.Dense())
	tm := topkRes.MatchOneToOne()
	for i := range dm {
		if dm[i] != tm[i] {
			t.Fatalf("match[%d]: dense-greedy %d, topk %d", i, dm[i], tm[i])
		}
	}
	dRep := metrics.Evaluate(denseRes.Sim.Dense(), truth, 1, 5, 10)
	tRep := metrics.EvaluateSim(topkRes.Sim, truth, 1, 5, 10)
	if dRep.MRR != tRep.MRR || dRep.PrecisionAt[1] != tRep.PrecisionAt[1] || dRep.PrecisionAt[10] != tRep.PrecisionAt[10] {
		t.Fatalf("evaluation: dense %v vs topk %v", dRep, tRep)
	}
}

// TestRefinedTopKRowsBestFirst extends the k = n equivalence through
// RefiNA refinement on an Econ pair: the refined candidate rows must
// hold the dense scores bit for bit and keep the best-first order that
// TopKSim's Scan promises and Predict reads its heads from. Column
// normalisation reorders a row, so without re-sorting every cell still
// matches while Scan visits rows out of order and Predict disagrees with
// dense.
func TestRefinedTopKRowsBestFirst(t *testing.T) {
	n := 120
	gs := datasets.Econ(n, 1)
	gt, _ := datasets.MakeTarget(gs, 0.1, 1)
	cfg := Config{Variant: LowOrderFT, Hidden: 32, Embed: 16, Epochs: 10, MaxFineTuneIters: 5, RefineIters: 3, Seed: 1}
	denseRes, err := Align(gs, gt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Similarity, cfg.CandidateK = SimTopK, n
	topkRes, err := Align(gs, gt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dm := denseRes.Sim.Dense()
	for i := 0; i < n; i++ {
		prev, prevScore := -1, 0.0
		topkRes.Sim.Scan(i, func(j int, v float64) {
			if v != dm.At(i, j) {
				t.Fatalf("score (%d,%d): dense %v, topk %v", i, j, dm.At(i, j), v)
			}
			if prev >= 0 && (v > prevScore || v == prevScore && j < prev) {
				t.Fatalf("row %d: Scan visits (%d, %v) after (%d, %v)", i, j, v, prev, prevScore)
			}
			prev, prevScore = j, v
		})
	}
	dp, tp := denseRes.Predict(), topkRes.Predict()
	for i := range dp {
		if dp[i] != tp[i] {
			t.Fatalf("predict[%d]: dense %d, topk %d", i, dp[i], tp[i])
		}
	}
}

// TestAlignTopKBounded runs the top-k backend with a small k on a pair
// where it genuinely prunes, and checks the run stays functional: sparse
// result shape, candidate budget respected, decent accuracy on an easy
// pair.
func TestAlignTopKBounded(t *testing.T) {
	n := 60
	gs, gt, truth := noisyPair(n, 0.05, 5)
	cfg := quickConfig(Full)
	cfg.Similarity = SimTopK
	cfg.CandidateK = 8
	res, err := Align(gs, gt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SimBackend != "topk" || res.CandidateK != 8 {
		t.Fatalf("backend %q k=%d", res.SimBackend, res.CandidateK)
	}
	rows, cols := res.Sim.Dims()
	if rows != n || cols != n {
		t.Fatalf("sim dims %dx%d", rows, cols)
	}
	// The integrated candidate union across K orbits is bounded by K·k.
	maxUnion := len(res.PerOrbit) * 8
	for i := 0; i < rows; i++ {
		count := 0
		res.Sim.Scan(i, func(int, float64) { count++ })
		if count == 0 || count > maxUnion {
			t.Fatalf("row %d has %d candidates (bound %d)", i, count, maxUnion)
		}
	}
	rep := metrics.EvaluateSim(res.Sim, truth, 1)
	if rep.PrecisionAt[1] < 0.5 {
		t.Fatalf("p@1 = %.3f under top-k on an easy pair", rep.PrecisionAt[1])
	}
}

// TestAlignNegativeCandidateK: a negative candidate count is a caller
// bug, reported as ErrBadCandidateK rather than silently defaulted.
func TestAlignNegativeCandidateK(t *testing.T) {
	gs, gt, _ := noisyPair(12, 0, 1)
	cfg := quickConfig(LowOrder)
	cfg.CandidateK = -1
	if _, err := Align(gs, gt, cfg); !errors.Is(err, ErrBadCandidateK) {
		t.Fatalf("err = %v, want ErrBadCandidateK", err)
	}
}

// TestResolveSimilarity covers the auto crossover and the candidate-count
// defaulting.
func TestResolveSimilarity(t *testing.T) {
	cases := []struct {
		name        string
		cfg         Config
		ns, nt      int
		wantBackend SimBackend
		wantK       int
	}{
		{"auto small stays dense", Config{}, 1000, 1000, SimDense, 0},
		{"auto large flips to topk", Config{}, 5000, 5000, SimTopK, 40},
		{"forced dense stays dense even huge", Config{Similarity: SimDense}, 9000, 9000, SimDense, 0},
		{"forced topk on small pair", Config{Similarity: SimTopK}, 100, 80, SimTopK, 40},
		{"explicit k wins", Config{Similarity: SimTopK, CandidateK: 7}, 100, 80, SimTopK, 7},
		{"k clamped to pair size", Config{Similarity: SimTopK, CandidateK: 500}, 100, 80, SimTopK, 100},
		{"default k floors at 32", Config{Similarity: SimTopK, M: 5}, 5000, 5000, SimTopK, 32},
		{"forced ann on small pair", Config{Similarity: SimANN}, 100, 80, SimANN, 40},
		{"auto huge flips to ann", Config{}, 40000, 40000, SimANN, 40},
		{"auto mid-size stays topk", Config{}, 30000, 30000, SimTopK, 40},
		{"explicit k wins on ann", Config{Similarity: SimANN, CandidateK: 7}, 100, 80, SimANN, 7},
	}
	for _, tc := range cases {
		b, k := tc.cfg.ResolveSimilarity(tc.ns, tc.nt)
		if b != tc.wantBackend || k != tc.wantK {
			t.Errorf("%s: got (%v, %d), want (%v, %d)", tc.name, b, k, tc.wantBackend, tc.wantK)
		}
	}
}

// TestSimBackendJSON locks the config wire format: backends travel by
// name, unknown names fail, and the zero value (auto) is omitted.
func TestSimBackendJSON(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SimBackend
	}{{"auto", SimAuto}, {"dense", SimDense}, {"topk", SimTopK}, {"TOP-K", SimTopK}, {"ann", SimANN}, {"LSH", SimANN}} {
		got, err := ParseSimBackend(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseSimBackend(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseSimBackend("cosine"); err == nil {
		t.Error("unknown backend accepted")
	}
	var s SimBackend
	if err := s.UnmarshalText([]byte("topk")); err != nil || s != SimTopK {
		t.Errorf("UnmarshalText: %v, %v", s, err)
	}
	blob, err := SimTopK.MarshalText()
	if err != nil || string(blob) != "topk" {
		t.Errorf("MarshalText: %q, %v", blob, err)
	}
}
