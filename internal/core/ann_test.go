package core

import (
	"errors"
	"reflect"
	"testing"

	"github.com/htc-align/htc/internal/align"
	"github.com/htc-align/htc/internal/ann"
	"github.com/htc-align/htc/internal/metrics"
)

// TestAlignANNExactEquivalence is the pipeline-level proof of the
// exactness escape hatch: a full run under the ANN backend with
// AnnProbes = 2^AnnBits must be bit-identical to the exact top-k run —
// same per-orbit trusted counts and weights, same scores on every
// represented pair, same predictions, matching and evaluation.
func TestAlignANNExactEquivalence(t *testing.T) {
	n := 40
	gs, gt, truth := noisyPair(n, 0.1, 3)

	cfg := quickConfig(Full)
	cfg.Similarity = SimTopK
	cfg.CandidateK = 10
	topkRes, err := Align(gs, gt, cfg)
	if err != nil {
		t.Fatal(err)
	}

	annCfg := cfg
	annCfg.Similarity = SimANN
	annCfg.AnnBits = 4
	annCfg.AnnProbes = 1 << 4
	annRes, err := Align(gs, gt, annCfg)
	if err != nil {
		t.Fatal(err)
	}

	if topkRes.SimBackend != "topk" || annRes.SimBackend != "ann" {
		t.Fatalf("backends %q / %q", topkRes.SimBackend, annRes.SimBackend)
	}
	if annRes.CandidateK != 10 || annRes.AnnBits != 4 || annRes.AnnProbes != 16 {
		t.Fatalf("ann run resolved k=%d bits=%d probes=%d", annRes.CandidateK, annRes.AnnBits, annRes.AnnProbes)
	}
	if topkRes.AnnBits != 0 || topkRes.AnnProbes != 0 {
		t.Fatalf("topk run reports ann params %d/%d", topkRes.AnnBits, topkRes.AnnProbes)
	}
	if _, ok := annRes.Sim.(*align.TopKSim); !ok {
		t.Fatal("ann run must hold its scores as a candidate list, not a dense matrix")
	}

	if !reflect.DeepEqual(topkRes.PerOrbit, annRes.PerOrbit) {
		t.Fatalf("per-orbit outcomes differ:\ntopk %+v\nann  %+v", topkRes.PerOrbit, annRes.PerOrbit)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want, wok := topkRes.Sim.At(i, j)
			got, gok := annRes.Sim.At(i, j)
			if wok != gok || got != want {
				t.Fatalf("score (%d,%d): topk %v (ok=%v), ann %v (ok=%v)", i, j, want, wok, got, gok)
			}
		}
	}
	tp, ap := topkRes.Predict(), annRes.Predict()
	if !reflect.DeepEqual(tp, ap) {
		t.Fatal("predictions differ between exact top-k and full-probe ann")
	}
	if !reflect.DeepEqual(topkRes.MatchOneToOne(), annRes.MatchOneToOne()) {
		t.Fatal("matchings differ between exact top-k and full-probe ann")
	}
	tRep := metrics.EvaluateSim(topkRes.Sim, truth, 1, 5, 10)
	aRep := metrics.EvaluateSim(annRes.Sim, truth, 1, 5, 10)
	if tRep.MRR != aRep.MRR || tRep.PrecisionAt[1] != aRep.PrecisionAt[1] {
		t.Fatalf("evaluation: topk %v vs ann %v", tRep, aRep)
	}
}

// TestAlignANNApproximate runs the genuinely approximate regime on an
// easy pair and checks the run stays functional end to end.
func TestAlignANNApproximate(t *testing.T) {
	n := 60
	gs, gt, truth := noisyPair(n, 0.05, 5)
	cfg := quickConfig(Full)
	cfg.Similarity = SimANN
	cfg.CandidateK = 8
	cfg.AnnBits = 5
	cfg.AnnProbes = 12 // 12 of 32 buckets
	res, err := Align(gs, gt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SimBackend != "ann" || res.CandidateK != 8 || res.AnnBits != 5 || res.AnnProbes != 12 {
		t.Fatalf("resolved backend %q k=%d bits=%d probes=%d", res.SimBackend, res.CandidateK, res.AnnBits, res.AnnProbes)
	}
	rows, cols := res.Sim.Dims()
	if rows != n || cols != n {
		t.Fatalf("sim dims %dx%d", rows, cols)
	}
	for i := 0; i < rows; i++ {
		count := 0
		res.Sim.Scan(i, func(int, float64) { count++ })
		if count == 0 || count > len(res.PerOrbit)*8 {
			t.Fatalf("row %d has %d candidates", i, count)
		}
	}
	rep := metrics.EvaluateSim(res.Sim, truth, 1)
	if rep.PrecisionAt[1] < 0.5 {
		t.Fatalf("p@1 = %.3f under ann on an easy pair", rep.PrecisionAt[1])
	}
}

// TestAlignANNStats: an ann run reports its skew-observability block —
// fits, hashed rows, query pool work — and echoes the configured pool
// cap; other backends report neither.
func TestAlignANNStats(t *testing.T) {
	n := 60
	gs, gt, _ := noisyPair(n, 0.05, 5)
	cfg := quickConfig(Full)
	cfg.Similarity = SimANN
	cfg.CandidateK = 8
	cfg.AnnBits = 5
	cfg.AnnProbes = 12
	cfg.AnnPoolCap = 40
	res, err := Align(gs, gt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.AnnPoolCap != 40 {
		t.Fatalf("AnnPoolCap = %d, want 40", res.AnnPoolCap)
	}
	st := res.Ann
	if st == nil {
		t.Fatal("ann run returned no stats block")
	}
	if st.Fits <= 0 || st.RowsHashed <= 0 {
		t.Fatalf("no hashing recorded: fits=%d rows=%d", st.Fits, st.RowsHashed)
	}
	if st.Buckets != 1<<5 {
		t.Fatalf("Buckets = %d, want %d", st.Buckets, 1<<5)
	}
	if st.Queries <= 0 || st.PoolRows <= 0 || st.PoolRowsMean <= 0 {
		t.Fatalf("no query work recorded: %+v", st)
	}
	if st.PoolRowsMax > 40 && st.PoolRowsMax > cfg.CandidateK {
		t.Fatalf("pool cap not honoured: max pool %d > cap 40", st.PoolRowsMax)
	}

	topkCfg := quickConfig(Full)
	topkCfg.Similarity = SimTopK
	topkRes, err := Align(gs, gt, topkCfg)
	if err != nil {
		t.Fatal(err)
	}
	if topkRes.Ann != nil || topkRes.AnnPoolCap != 0 {
		t.Fatalf("topk run reports ann stats: %+v cap=%d", topkRes.Ann, topkRes.AnnPoolCap)
	}
}

// TestResolveAnn covers the parameter auto-sizing against the pair.
func TestResolveAnn(t *testing.T) {
	var cfg Config
	bits, probes := cfg.ResolveAnn(100000, 90000)
	if bits != ann.AutoBits(100000) || probes != ann.AutoProbes(bits) {
		t.Fatalf("auto resolution gave bits=%d probes=%d", bits, probes)
	}
	cfg = Config{AnnBits: 10, AnnProbes: 3}
	if b, p := cfg.ResolveAnn(100000, 90000); b != 10 || p != 3 {
		t.Fatalf("explicit knobs overridden: bits=%d probes=%d", b, p)
	}
	cfg = Config{AnnBits: 6}
	if b, p := cfg.ResolveAnn(50, 50); b != 6 || p != ann.AutoProbes(6) {
		t.Fatalf("mixed resolution gave bits=%d probes=%d", b, p)
	}
}

// TestValidateSimilarity pins the contradiction rules: out-of-range
// knobs and knobs the resolved backend would silently ignore.
func TestValidateSimilarity(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		ns, nt  int
		wantErr error
	}{
		{"clean default", Config{}, 100, 100, nil},
		{"topk with k", Config{Similarity: SimTopK, CandidateK: 8}, 100, 100, nil},
		{"ann with all knobs", Config{Similarity: SimANN, CandidateK: 8, AnnBits: 6, AnnProbes: 12}, 100, 100, nil},
		{"negative k", Config{CandidateK: -1}, 100, 100, ErrBadCandidateK},
		{"negative bits", Config{Similarity: SimANN, AnnBits: -2}, 100, 100, ErrBadAnnParam},
		{"bits beyond max", Config{Similarity: SimANN, AnnBits: ann.MaxBits + 1}, 100, 100, ErrBadAnnParam},
		{"negative probes", Config{Similarity: SimANN, AnnProbes: -1}, 100, 100, ErrBadAnnParam},
		{"negative pool cap", Config{Similarity: SimANN, AnnPoolCap: -1}, 100, 100, ErrBadAnnParam},
		{"ann with pool cap", Config{Similarity: SimANN, AnnPoolCap: 64}, 100, 100, nil},
		{"k under forced dense", Config{Similarity: SimDense, CandidateK: 8}, 100, 100, ErrIgnoredSimKnob},
		{"k under auto-resolved dense", Config{CandidateK: 8}, 100, 100, ErrIgnoredSimKnob},
		{"ann knobs under forced topk", Config{Similarity: SimTopK, AnnBits: 6}, 100, 100, ErrIgnoredSimKnob},
		{"ann probes under forced dense", Config{Similarity: SimDense, AnnProbes: 4}, 100, 100, ErrIgnoredSimKnob},
		{"pool cap under forced topk", Config{Similarity: SimTopK, AnnPoolCap: 64}, 100, 100, ErrIgnoredSimKnob},
		{"auto sizeless tolerates pool cap", Config{AnnPoolCap: 64}, 0, 0, nil},
		{"auto sizeless tolerates k", Config{CandidateK: 8}, 0, 0, nil},
		{"auto sizeless tolerates ann knobs", Config{AnnBits: 6}, 0, 0, nil},
		{"forced dense sizeless still rejects k", Config{Similarity: SimDense, CandidateK: 8}, 0, 0, ErrIgnoredSimKnob},
		{"sizeless still range-checks", Config{AnnBits: -1}, 0, 0, ErrBadAnnParam},
	}
	for _, tc := range cases {
		err := tc.cfg.ValidateSimilarity(tc.ns, tc.nt)
		if tc.wantErr == nil && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.wantErr)
		}
	}
}

// TestAlignRejectsIgnoredKnobs: the contradictions surface from Align
// itself, not just the helper.
func TestAlignRejectsIgnoredKnobs(t *testing.T) {
	gs, gt, _ := noisyPair(12, 0, 1)
	cfg := quickConfig(LowOrder)
	cfg.Similarity = SimDense
	cfg.CandidateK = 8
	if _, err := Align(gs, gt, cfg); !errors.Is(err, ErrIgnoredSimKnob) {
		t.Fatalf("dense+candidate_k: err = %v, want ErrIgnoredSimKnob", err)
	}
	cfg = quickConfig(LowOrder)
	cfg.Similarity = SimTopK
	cfg.AnnBits = 6
	if _, err := Align(gs, gt, cfg); !errors.Is(err, ErrIgnoredSimKnob) {
		t.Fatalf("topk+ann_bits: err = %v, want ErrIgnoredSimKnob", err)
	}
	cfg = quickConfig(LowOrder)
	cfg.Similarity = SimANN
	cfg.AnnBits = 99
	if _, err := Align(gs, gt, cfg); !errors.Is(err, ErrBadAnnParam) {
		t.Fatalf("ann_bits out of range: err = %v, want ErrBadAnnParam", err)
	}
}
