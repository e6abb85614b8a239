package align

import (
	"math/rand"
	"testing"

	"github.com/htc-align/htc/internal/dense"
	"github.com/htc-align/htc/internal/gom"
	"github.com/htc-align/htc/internal/graph"
	"github.com/htc-align/htc/internal/nn"
	"github.com/htc-align/htc/internal/orbit"
)

// buildAlignedPair creates a graph, an isomorphic copy under a random
// permutation, and feature matrices consistent with the permutation —
// the exact regime where Proposition 1 guarantees matching embeddings.
func buildAlignedPair(n int, seed int64) (gs, gt *graph.Graph, perm []int) {
	rng := rand.New(rand.NewSource(seed))
	gs = graph.ErdosRenyi(n, 0.25, rng)
	x := dense.New(n, 6)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	gs = gs.WithAttrs(x)
	perm = graph.Permutation(n, rng)
	gt = graph.Relabel(gs, perm)
	return gs, gt, perm
}

func trainEncoder(gs, gt *graph.Graph, k int, seed int64) (*nn.Encoder, *nn.GraphData, *nn.GraphData) {
	src := &nn.GraphData{Laps: gom.Build(gs, orbit.Count(gs), k, false).Laplacians, X: gs.Attrs()}
	tgt := &nn.GraphData{Laps: gom.Build(gt, orbit.Count(gt), k, false).Laplacians, X: gt.Attrs()}
	enc := nn.NewEncoder([]int{gs.Attrs().Cols, 8, 4}, []nn.Activation{nn.Tanh{}, nn.Tanh{}}, rand.New(rand.NewSource(seed)))
	nn.Train(enc, src, tgt, nn.TrainConfig{Epochs: 40, LR: 0.02})
	return enc, src, tgt
}

func TestFineTuneRecoversIsomorphicAlignment(t *testing.T) {
	gs, gt, perm := buildAlignedPair(30, 42)
	enc, src, tgt := trainEncoder(gs, gt, 3, 43)

	res := FineTune(enc, src.Laps[0], tgt.Laps[0], src.X, tgt.X, FineTuneConfig{M: 5, Beta: 1.1})
	if res.Sim == nil {
		t.Fatal("no alignment produced")
	}
	if rows, cols := res.Sim.Dims(); rows != 30 || cols != 30 {
		t.Fatalf("alignment shape %dx%d", rows, cols)
	}
	// On a perfectly consistent pair the argmax prediction must be
	// essentially the ground-truth permutation.
	pred := res.Sim.Predict()
	correct := 0
	for i, j := range pred {
		if j == perm[i] {
			correct++
		}
	}
	if correct < 27 {
		t.Fatalf("only %d/30 nodes aligned on an isomorphic pair", correct)
	}
}

func TestFineTuneTrustedCountPositive(t *testing.T) {
	gs, gt, _ := buildAlignedPair(24, 7)
	enc, src, tgt := trainEncoder(gs, gt, 2, 8)
	res := FineTune(enc, src.Laps[1], tgt.Laps[1], src.X, tgt.X, FineTuneConfig{M: 5, Beta: 1.1})
	if res.Trusted <= 0 {
		t.Fatalf("trusted pairs = %d, want > 0", res.Trusted)
	}
	if res.Iters < 1 {
		t.Fatalf("iters = %d", res.Iters)
	}
}

func TestFineTuneRespectsMaxIters(t *testing.T) {
	gs, gt, _ := buildAlignedPair(20, 9)
	enc, src, tgt := trainEncoder(gs, gt, 1, 10)
	res := FineTune(enc, src.Laps[0], tgt.Laps[0], src.X, tgt.X, FineTuneConfig{M: 5, Beta: 1.5, MaxIters: 2})
	if res.Iters > 2 {
		t.Fatalf("iters = %d exceeds cap", res.Iters)
	}
}

func TestFineTuneDefaultsApplied(t *testing.T) {
	cfg := FineTuneConfig{}.withDefaults()
	if cfg.M != 20 || cfg.Beta != 1.1 || cfg.MaxIters != 30 {
		t.Fatalf("defaults = %+v", cfg)
	}
	// Explicit values survive.
	cfg = FineTuneConfig{M: 7, Beta: 1.3, MaxIters: 5}.withDefaults()
	if cfg.M != 7 || cfg.Beta != 1.3 || cfg.MaxIters != 5 {
		t.Fatalf("explicit config clobbered: %+v", cfg)
	}
}

func TestFineTuneDoesNotMutateLaplacians(t *testing.T) {
	gs, gt, _ := buildAlignedPair(18, 11)
	enc, src, tgt := trainEncoder(gs, gt, 1, 12)
	before := src.Laps[0].ToDense()
	FineTune(enc, src.Laps[0], tgt.Laps[0], src.X, tgt.X, FineTuneConfig{M: 4, Beta: 1.2})
	if !src.Laps[0].ToDense().Equal(before, 0) {
		t.Fatal("FineTune mutated the source Laplacian")
	}
}

func TestFineTuneRectangular(t *testing.T) {
	// Partial alignment: the target is a subgraph with fewer nodes.
	rng := rand.New(rand.NewSource(13))
	gs := graph.ErdosRenyi(26, 0.3, rng)
	xs := dense.New(26, 4)
	for i := range xs.Data {
		xs.Data[i] = rng.NormFloat64()
	}
	gs = gs.WithAttrs(xs)

	// Target: the induced subgraph on the first 15 nodes.
	keep := 15
	b := graph.NewBuilder(keep)
	for _, e := range gs.Edges() {
		if int(e[0]) < keep && int(e[1]) < keep {
			b.AddEdge(int(e[0]), int(e[1]))
		}
	}
	xt := dense.New(keep, 4)
	for i := 0; i < keep; i++ {
		copy(xt.Row(i), xs.Row(i))
	}
	gt := b.Build().WithAttrs(xt)

	enc, src, tgt := trainEncoder(gs, gt, 2, 14)
	res := FineTune(enc, src.Laps[0], tgt.Laps[0], src.X, tgt.X, FineTuneConfig{M: 4, Beta: 1.1})
	if rows, cols := res.Sim.Dims(); rows != 26 || cols != keep {
		t.Fatalf("rectangular alignment shape %dx%d", rows, cols)
	}
}
