package htc_test

import (
	"bytes"
	"math/rand"
	"testing"

	htc "github.com/htc-align/htc"
)

// smallPair builds a quick aligned pair through the public API only.
func smallPair(t *testing.T) (*htc.Graph, *htc.Graph, htc.Truth) {
	t.Helper()
	g := htc.Econ(120, 1)
	gt, truth := htc.MakeTarget(g, 0.1, 2)
	return g, gt, truth
}

func TestPublicAlignEndToEnd(t *testing.T) {
	gs, gt, truth := smallPair(t)
	res, err := htc.Align(gs, gt, htc.Config{K: 4, Hidden: 16, Embed: 8, Epochs: 30, M: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rep := htc.Evaluate(res.Sim.Dense(), truth, 1, 10)
	t.Logf("public API: %v", rep)
	if rep.PrecisionAt[1] < 0.3 {
		t.Fatalf("p@1 = %v, want ≥ 0.3 on light noise", rep.PrecisionAt[1])
	}
	if len(res.Predict()) != gs.N() {
		t.Fatal("Predict length mismatch")
	}
}

func TestHTCImplementsAligner(t *testing.T) {
	var aligners []htc.Aligner = []htc.Aligner{
		htc.HTC{Config: htc.Config{K: 2, Hidden: 8, Embed: 4, Epochs: 10, M: 4}},
		htc.IsoRank{Iters: 5},
		htc.FINAL{Iters: 5},
		htc.REGAL{},
		htc.PALE{Epochs: 5},
		htc.CENALP{Epochs: 5, Rounds: 1},
		htc.GAlign{Epochs: 5},
	}
	gs, gt, truth := smallPair(t)
	seeds := htc.SampleSeeds(truth, 0.1, 4)
	for _, a := range aligners {
		m, err := a.Align(gs, gt, seeds)
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		if m.Rows != gs.N() || m.Cols != gt.N() {
			t.Fatalf("%s: bad shape", a.Name())
		}
	}
}

func TestHTCAlignerName(t *testing.T) {
	if (htc.HTC{}).Name() != "HTC" {
		t.Fatalf("Name = %q", htc.HTC{}.Name())
	}
	if (htc.HTC{Config: htc.Config{Variant: htc.VariantLowOrder}}).Name() != "HTC-L" {
		t.Fatal("variant name not propagated")
	}
}

func TestGraphBuildAndIO(t *testing.T) {
	b := htc.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	var buf bytes.Buffer
	if err := htc.WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := htc.ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEdges() != 2 {
		t.Fatalf("edges = %d", got.NumEdges())
	}
}

func TestCountEdgeOrbitsPublic(t *testing.T) {
	b := htc.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	g := b.Build()
	counts := htc.CountEdgeOrbits(g)
	if len(counts) != 3 {
		t.Fatalf("rows = %d", len(counts))
	}
	for _, row := range counts {
		if row[0] != 1 || row[2] != 1 { // every edge is in the triangle
			t.Fatalf("row = %v", row)
		}
	}
	if htc.OrbitNames[2] != "triangle" {
		t.Fatalf("OrbitNames[2] = %q", htc.OrbitNames[2])
	}
	nodeCounts := htc.CountNodeOrbits(g)
	if len(nodeCounts) != 3 {
		t.Fatalf("node rows = %d", len(nodeCounts))
	}
	for v, row := range nodeCounts {
		if row[0] != 2 || row[3] != 1 { // each triangle node: degree 2, one triangle
			t.Fatalf("node %d GDV = %v", v, row)
		}
	}
	if htc.NodeOrbitNames[7] != "star-center" || htc.NumNodeOrbits != 15 {
		t.Fatal("node orbit metadata wrong")
	}
}

func TestDatasetReExports(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	_ = rng
	p := htc.Douban(150, 6)
	if p.Source.N() != 150 {
		t.Fatalf("Douban source n = %d", p.Source.N())
	}
	if htc.NumOrbits != 13 {
		t.Fatalf("NumOrbits = %d", htc.NumOrbits)
	}
}
