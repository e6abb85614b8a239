package core

import (
	"errors"
	"math"
	"testing"

	"github.com/htc-align/htc/internal/metrics"
)

func TestAlignThreeLayerEncoder(t *testing.T) {
	gs, gt, truth := noisyPair(30, 0.05, 20)
	cfg := quickConfig(Full)
	cfg.Layers = 3
	res, err := Align(gs, gt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := metrics.Evaluate(res.Sim.Dense(), truth, 1)
	if rep.PrecisionAt[1] < 0.3 {
		t.Fatalf("3-layer p@1 = %v, implausibly low", rep.PrecisionAt[1])
	}
}

func TestAlignBinaryGOMs(t *testing.T) {
	gs, gt, truth := noisyPair(30, 0.05, 21)
	cfg := quickConfig(Full)
	cfg.Binary = true
	res, err := Align(gs, gt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := metrics.Evaluate(res.Sim.Dense(), truth, 1)
	t.Logf("binary GOM p@1 = %.3f", rep.PrecisionAt[1])
	if rep.PrecisionAt[1] < 0.2 {
		t.Fatalf("binary GOM p@1 = %v, implausibly low", rep.PrecisionAt[1])
	}
	// Binary and weighted runs must actually differ (the flag is wired
	// through).
	weighted, err := Align(gs, gt, quickConfig(Full))
	if err != nil {
		t.Fatal(err)
	}
	if res.Sim.Dense().Equal(weighted.Sim.Dense(), 0) {
		t.Fatal("binary flag had no effect")
	}
}

func TestAlignPatienceStopsEarly(t *testing.T) {
	gs, gt, _ := noisyPair(25, 0.05, 22)
	cfg := quickConfig(Full)
	cfg.Epochs = 200
	cfg.Patience = 3
	res, err := Align(gs, gt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LossHistory) >= 200 {
		t.Fatalf("patience did not stop training (%d epochs)", len(res.LossHistory))
	}
}

func TestAlignKeepEmbeddings(t *testing.T) {
	gs, gt, _ := noisyPair(25, 0.05, 23)
	cfg := quickConfig(Full)
	cfg.KeepEmbeddings = true
	res, err := Align(gs, gt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SourceEmbeddings) != cfg.K || len(res.TargetEmbeddings) != cfg.K {
		t.Fatalf("embeddings per orbit: %d/%d, want %d",
			len(res.SourceEmbeddings), len(res.TargetEmbeddings), cfg.K)
	}
	for k, h := range res.SourceEmbeddings {
		if h == nil || h.Rows != gs.N() || h.Cols != cfg.Embed {
			t.Fatalf("orbit %d source embeddings malformed", k)
		}
	}
	// Default runs must not pay the memory cost.
	lean, err := Align(gs, gt, quickConfig(Full))
	if err != nil {
		t.Fatal(err)
	}
	if lean.SourceEmbeddings != nil {
		t.Fatal("embeddings kept without KeepEmbeddings")
	}
}

func TestMatchOneToOneInjective(t *testing.T) {
	gs, gt, truth := noisyPair(30, 0.05, 24)
	res, err := Align(gs, gt, quickConfig(Full))
	if err != nil {
		t.Fatal(err)
	}
	match := res.MatchOneToOne()
	seen := map[int]bool{}
	correct := 0
	for s, tt := range match {
		if tt < 0 {
			continue
		}
		if seen[tt] {
			t.Fatal("one-to-one matching reused a target node")
		}
		seen[tt] = true
		if truth[s] == tt {
			correct++
		}
	}
	// One-to-one on a near-perfect instance should be at least as good
	// as chance by a huge margin.
	if correct < 20 {
		t.Fatalf("one-to-one matched %d/30 correctly", correct)
	}
}

func TestAlignSeedsHelpOnNoisyPair(t *testing.T) {
	// HTC-S: seeding known anchors into the reinforcement must not hurt,
	// and changes the result.
	gs, gt, truth := noisyPair(35, 0.25, 28)
	cfg := quickConfig(Full)
	plain, err := Align(gs, gt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seeded := cfg
	for s := 0; s < 12; s++ {
		seeded.Seeds = append(seeded.Seeds, [2]int{s, truth[s]})
	}
	withSeeds, err := Align(gs, gt, seeded)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Sim.Dense().Equal(withSeeds.Sim.Dense(), 0) {
		t.Fatal("seeds had no effect on the alignment matrix")
	}
	pPlain := metrics.Evaluate(plain.Sim.Dense(), truth, 1).PrecisionAt[1]
	pSeeded := metrics.Evaluate(withSeeds.Sim.Dense(), truth, 1).PrecisionAt[1]
	t.Logf("unsupervised %.3f vs seeded %.3f", pPlain, pSeeded)
	if pSeeded+0.1 < pPlain {
		t.Fatalf("seeds hurt badly: %.3f vs %.3f", pSeeded, pPlain)
	}
}

func TestAlignSeedsIgnoredWithoutFineTune(t *testing.T) {
	gs, gt, truth := noisyPair(25, 0.1, 29)
	cfg := quickConfig(HighOrder)
	plain, err := Align(gs, gt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seeds = [][2]int{{0, truth[0]}, {1, truth[1]}}
	seeded, err := Align(gs, gt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Sim.Dense().Equal(seeded.Sim.Dense(), 0) {
		t.Fatal("no-fine-tune variant must ignore seeds")
	}
}

func TestAlignSeedsOutOfRangeIgnored(t *testing.T) {
	gs, gt, _ := noisyPair(20, 0.1, 30)
	cfg := quickConfig(Full)
	cfg.Seeds = [][2]int{{-1, 5}, {3, 999}, {2, 2}}
	if _, err := Align(gs, gt, cfg); err != nil {
		t.Fatalf("out-of-range seeds must be skipped, got %v", err)
	}
}

func TestAlignRejectsNaNAttrs(t *testing.T) {
	gs, gt, _ := noisyPair(15, 0.05, 27)
	bad := gs.Attrs().Clone()
	bad.Set(3, 2, math.NaN())
	gsBad := gs.WithAttrs(bad)
	if _, err := Align(gsBad, gt, quickConfig(Full)); !errors.Is(err, ErrBadAttrs) {
		t.Fatalf("err = %v, want ErrBadAttrs", err)
	}
	inf := gt.Attrs().Clone()
	inf.Set(0, 0, math.Inf(1))
	gtBad := gt.WithAttrs(inf)
	if _, err := Align(gs, gtBad, quickConfig(Full)); !errors.Is(err, ErrBadAttrs) {
		t.Fatalf("err = %v, want ErrBadAttrs", err)
	}
}

func TestAlignRectangularVariants(t *testing.T) {
	// ns ≠ nt must work for every variant (Douban regime).
	gs, _, _ := noisyPair(28, 0.1, 25)
	gtSmall, _, _ := noisyPair(19, 0.1, 26)
	for _, v := range []Variant{Full, LowOrder, HighOrder, LowOrderFT, DiffusionFT} {
		res, err := Align(gs, gtSmall, quickConfig(v))
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if rows, cols := res.Sim.Dims(); rows != 28 || cols != 19 {
			t.Fatalf("%v: shape %dx%d", v, rows, cols)
		}
	}
}
