package experiments

import (
	"reflect"
	"strings"
	"testing"

	"github.com/htc-align/htc/internal/core"
)

// tiny returns options small enough for CI: ~60–180 node datasets and
// short training.
func tiny() Options { return Options{Scale: 0.12, Seed: 7, Epochs: 8} }

func TestTable1(t *testing.T) {
	rows, text := Table1(tiny())
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8 networks", len(rows))
	}
	for _, r := range rows {
		if r.Nodes <= 0 || r.Edges <= 0 {
			t.Fatalf("degenerate row %+v", r)
		}
	}
	if !strings.Contains(text, "Douban Online") {
		t.Fatal("rendering missing dataset names")
	}
}

func TestTable2AndFig7(t *testing.T) {
	if testing.Short() {
		t.Skip("full method roster is slow")
	}
	cells, text, err := Table2(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 7*3 {
		t.Fatalf("cells = %d, want 21 (7 methods × 3 pairs)", len(cells))
	}
	for _, c := range cells {
		if c.P1 < 0 || c.P1 > 1 || c.Seconds < 0 {
			t.Fatalf("bad cell %+v", c)
		}
	}
	if !strings.Contains(text, "HTC") || !strings.Contains(text, "GAlign") {
		t.Fatal("rendering missing methods")
	}
	fig7 := Fig7(cells)
	if !strings.Contains(fig7, "runtime comparison") {
		t.Fatal("Fig7 rendering broken")
	}
}

func TestTable3(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation roster is slow")
	}
	cells, text, err := Table3(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 6*2 {
		t.Fatalf("cells = %d, want 12 (6 variants × 2 datasets)", len(cells))
	}
	for _, c := range cells {
		if c.P1 < 0 || c.P1 > 1 {
			t.Fatalf("bad cell %+v", c)
		}
	}
	if !strings.Contains(text, "HTC-DT") {
		t.Fatal("rendering missing variants")
	}
}

// TestTable3Refined covers the refinement face of the ablation table: a
// nonzero RefineIters runs the RefiNA stage on every variant and adds
// the unrefined p@1 column to the rendering.
func TestTable3Refined(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation roster is slow")
	}
	o := tiny()
	o.Config.RefineIters = 3
	cells, text, err := Table3(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if !c.Refined {
			t.Fatalf("cell %+v not marked Refined with RefineIters = 3", c)
		}
		if c.P1Unrefined < 0 || c.P1Unrefined > 1 {
			t.Fatalf("bad unrefined p@1 in %+v", c)
		}
	}
	if !strings.Contains(text, "p@1 raw") {
		t.Fatal("refined rendering missing the unrefined column")
	}
}

func TestFig6(t *testing.T) {
	rows, text, err := Fig6(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 datasets", len(rows))
	}
	for _, r := range rows {
		var sum float64
		for _, g := range r.Gamma {
			sum += g
		}
		if sum < 0.99 || sum > 1.01 {
			t.Fatalf("%s gammas sum to %v", r.Dataset, sum)
		}
	}
	if !strings.Contains(text, "orbit") {
		t.Fatal("rendering broken")
	}
}

func TestFig8(t *testing.T) {
	rows, text, err := Fig8(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Timings.Total <= 0 {
			t.Fatalf("no total time for %s", r.Dataset)
		}
	}
	if !strings.Contains(text, "finetune") {
		t.Fatal("rendering broken")
	}
}

func TestFig9(t *testing.T) {
	if testing.Short() {
		t.Skip("robustness sweep is slow")
	}
	points, text, err := Fig9(Options{Scale: 0.06, Seed: 7, Epochs: 6})
	if err != nil {
		t.Fatal(err)
	}
	// 2 datasets × 5 ratios × 7 methods.
	if len(points) != 70 {
		t.Fatalf("points = %d, want 70", len(points))
	}
	if !strings.Contains(text, "Econ") || !strings.Contains(text, "BN") {
		t.Fatal("rendering broken")
	}
}

func TestFig9Additive(t *testing.T) {
	if testing.Short() {
		t.Skip("robustness sweep is slow")
	}
	points, text, err := Fig9Additive(Options{Scale: 0.06, Seed: 7, Epochs: 6})
	if err != nil {
		t.Fatal(err)
	}
	// 2 datasets × 3 ratios × 7 methods.
	if len(points) != 42 {
		t.Fatalf("points = %d, want 42", len(points))
	}
	if !strings.Contains(text, "Econ+add") {
		t.Fatal("rendering broken")
	}
}

func TestFig10(t *testing.T) {
	if testing.Short() {
		t.Skip("hyperparameter sweep is slow")
	}
	points, text, err := Fig10(Options{Scale: 0.15, Seed: 7, Epochs: 6})
	if err != nil {
		t.Fatal(err)
	}
	// 2 datasets × (7 K + 5 d + 4 m + 4 β) = 40 points.
	if len(points) != 40 {
		t.Fatalf("points = %d, want 40", len(points))
	}
	params := map[string]bool{}
	for _, p := range points {
		params[p.Param] = true
	}
	for _, want := range []string{"K", "d", "m", "beta"} {
		if !params[want] {
			t.Fatalf("missing sweep %q", want)
		}
	}
	if !strings.Contains(text, "beta") {
		t.Fatal("rendering broken")
	}
}

func TestFig11(t *testing.T) {
	rows, text, err := Fig11(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no orbits visualised")
	}
	var mrrBefore, mrrAfter float64
	for _, r := range rows {
		if r.Before == nil || r.After == nil {
			t.Fatalf("orbit %d missing layouts", r.Orbit)
		}
		if r.Before.Rows != 2*r.Sample || r.Before.Cols != 2 {
			t.Fatalf("orbit %d layout shape %dx%d", r.Orbit, r.Before.Rows, r.Before.Cols)
		}
		mrrBefore += r.MRRBefore
		mrrAfter += r.MRRAfter
	}
	// Training must tighten the anchor clouds on average (the point of
	// Fig. 11): after-alignment retrieval must beat the untrained
	// encoder.
	if mrrAfter <= mrrBefore {
		t.Errorf("mean MRR after (%.3f) not above before (%.3f)",
			mrrAfter/float64(len(rows)), mrrBefore/float64(len(rows)))
	}
	if !strings.Contains(text, "before") {
		t.Fatal("rendering broken")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Scale != 1 {
		t.Fatalf("scale default = %v", o.Scale)
	}
	if n := (Options{Scale: 0.001}).size(800); n != 60 {
		t.Fatalf("size floor = %d, want 60", n)
	}
	// The base config keeps its own knobs and widths; the run's seed and
	// epochs replace its own, and only unset widths take 64/32.
	base := core.Config{Embed: 8, Seed: 9, Epochs: 7, RefineIters: 2}
	got := Options{Seed: 3, Epochs: 4, Config: base}.htcConfig()
	want := core.Config{Hidden: 64, Embed: 8, Seed: 3, Epochs: 4, RefineIters: 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("htcConfig = %+v, want %+v", got, want)
	}
}
