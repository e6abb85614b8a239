package core

import (
	"errors"
	"testing"

	"github.com/htc-align/htc/internal/align"
	"github.com/htc-align/htc/internal/metrics"
)

// refineBackendConfigs enumerates one config per similarity backend for
// the same pair, so refinement properties can be asserted on all three.
func refineBackendConfigs(n int) map[string]Config {
	dense := quickConfig(Full)
	topk := dense
	topk.Similarity = SimTopK
	topk.CandidateK = 10
	ann := topk
	ann.Similarity = SimANN
	ann.AnnBits = 4
	ann.AnnProbes = 1 << 4
	return map[string]Config{"dense": dense, "topk": topk, "ann": ann}
}

// TestAlignRefineZeroItersBitIdentical is the stage-6 no-op contract:
// on every backend, RefineIters = 0 (the default) must leave the run bit
// for bit identical to one that never heard of refinement — same scores
// on every represented pair, no refinement artifacts on the result.
func TestAlignRefineZeroItersBitIdentical(t *testing.T) {
	n := 40
	gs, gt, _ := noisyPair(n, 0.1, 3)
	for name, cfg := range refineBackendConfigs(n) {
		base, err := Align(gs, gt, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		zcfg := cfg
		zcfg.RefineIters = 0
		zcfg.RefineTokenK = 0
		zero, err := Align(gs, gt, zcfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if zero.PreRefineSim != nil || zero.RefineMNC != nil || zero.RefineTokenK != 0 {
			t.Fatalf("%s: 0 iterations left refinement artifacts on the result", name)
		}
		if zero.Timings.Refinement != 0 || zero.Timings.RefinementBytes != 0 {
			t.Fatalf("%s: 0 iterations charged the refinement stage", name)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want, wok := base.Sim.At(i, j)
				got, gok := zero.Sim.At(i, j)
				if wok != gok || got != want {
					t.Fatalf("%s: score (%d,%d): base %v (ok=%v), refine_iters=0 %v (ok=%v)",
						name, i, j, want, wok, got, gok)
				}
			}
		}
	}
}

// TestAlignRefineImprovesHits runs the paper's synthetic-pair recipe with
// enough edge noise that stage 5 leaves mistakes, and checks stage 6
// repairs some of them: refined Hits@1 at least matches the unrefined
// score and the MNC trace ends above where it started.
func TestAlignRefineImprovesHits(t *testing.T) {
	n := 60
	gs, gt, truth := noisyPair(n, 0.15, 7)
	cfg := quickConfig(Full)
	cfg.RefineIters = 5
	res, err := Align(gs, gt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PreRefineSim == nil {
		t.Fatal("refined run did not keep the pre-refinement representation")
	}
	if len(res.RefineMNC) != cfg.RefineIters+1 {
		t.Fatalf("MNC trace has %d entries, want %d", len(res.RefineMNC), cfg.RefineIters+1)
	}
	if res.RefineTokenK <= 0 {
		t.Fatalf("resolved token budget = %d, want ≥ 1", res.RefineTokenK)
	}
	before := metrics.EvaluateSim(res.PreRefineSim, truth, 1)
	after := metrics.EvaluateSim(res.Sim, truth, 1)
	t.Logf("hits@1 %.4f -> %.4f, MNC %v", before.PrecisionAt[1], after.PrecisionAt[1], res.RefineMNC)
	if after.PrecisionAt[1] < before.PrecisionAt[1] {
		t.Errorf("refinement lowered Hits@1: %.4f -> %.4f", before.PrecisionAt[1], after.PrecisionAt[1])
	}
	last := res.RefineMNC[len(res.RefineMNC)-1]
	if last <= res.RefineMNC[0] {
		t.Errorf("refinement never raised MNC: %v", res.RefineMNC)
	}
	if res.Timings.Refinement <= 0 {
		t.Error("refinement stage not charged in the timing decomposition")
	}
}

// TestAlignRefineSparseStaysSparse checks the scale contract: refining a
// candidate-list run keeps the representation sparse — no dense ns×nt
// matrix on the result and every row within its candidate budget.
func TestAlignRefineSparseStaysSparse(t *testing.T) {
	n := 60
	gs, gt, _ := noisyPair(n, 0.05, 5)
	cfg := quickConfig(Full)
	cfg.Similarity = SimTopK
	cfg.CandidateK = 8
	cfg.RefineIters = 3
	cfg.RefineTokenK = 4
	res, err := Align(gs, gt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.RefineTokenK != 4 {
		t.Fatalf("resolved token budget = %d, want the configured 4", res.RefineTokenK)
	}
	ts, ok := res.Sim.(*align.TopKSim)
	if !ok {
		t.Fatalf("refined sim backend = %q, want a candidate list", res.Sim.Backend())
	}
	pre, ok := res.PreRefineSim.(*align.TopKSim)
	if !ok {
		t.Fatalf("pre-refinement backend = %q, want a candidate list", res.PreRefineSim.Backend())
	}
	// The stage-5 integration merges per-orbit candidate lists, so its
	// budget (the longest merged row) can exceed CandidateK; refinement
	// must stay within that budget, never grow it.
	for i, row := range ts.C.Idx {
		if len(row) > pre.C.K {
			t.Fatalf("row %d holds %d candidates, budget %d", i, len(row), pre.C.K)
		}
	}
}

// TestAlignRefineDeterministicAcrossWorkers re-checks the determinism
// contract with stage 6 in the loop: worker count must never change a
// single refined score.
func TestAlignRefineDeterministicAcrossWorkers(t *testing.T) {
	n := 40
	gs, gt, _ := noisyPair(n, 0.1, 9)
	cfg := quickConfig(Full)
	cfg.RefineIters = 3
	cfg.Workers = 1
	base, err := Align(gs, gt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	got, err := Align(gs, gt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if base.Sim.Dense().At(i, j) != got.Sim.Dense().At(i, j) {
				t.Fatalf("score (%d,%d) differs across worker counts", i, j)
			}
		}
	}
	for it := range base.RefineMNC {
		if base.RefineMNC[it] != got.RefineMNC[it] {
			t.Fatalf("MNC[%d] differs across worker counts", it)
		}
	}
}

func TestAlignRefineValidation(t *testing.T) {
	gs, gt, _ := noisyPair(20, 0.1, 11)
	cases := []struct {
		name string
		mod  func(*Config)
	}{
		{"negative iters", func(c *Config) { c.RefineIters = -1 }},
		{"negative token budget", func(c *Config) { c.RefineIters = 2; c.RefineTokenK = -3 }},
		{"token budget without iterations", func(c *Config) { c.RefineTokenK = 4 }},
	}
	for _, tc := range cases {
		cfg := quickConfig(Full)
		tc.mod(&cfg)
		if _, err := Align(gs, gt, cfg); !errors.Is(err, ErrBadRefineParam) {
			t.Errorf("%s: error = %v, want ErrBadRefineParam", tc.name, err)
		}
	}
}
