package main

import (
	"math"
	"testing"
	"time"

	"github.com/htc-align/htc/internal/core"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4) in Python.
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 7}, 4.5, 6, 7.5},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {95, 10}, {100, 10}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{{19, 0, false}, {20, 50, true}, {40, 75, true}, {100, 90, true}, {199, 90, true}, {200, 95, true}, {1000, 99, true}, {10000, 99.9, true}} {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	d := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{layer: "core.align", parent: -1, start: d(0), end: d(100), allocStart: 0, allocEnd: 1000},
		{layer: "nn.train", parent: 0, start: d(10), end: d(40), allocStart: 100, allocEnd: 300},
		{layer: "nn.train", parent: 0, start: d(30), end: d(60), allocStart: 300, allocEnd: 400},
		// Overhangs the parent: only the overlap counts against it.
		{layer: "align.finetune", parent: 0, start: d(80), end: d(120), allocStart: 500, allocEnd: 900},
		{layer: "metrics.eval", parent: -1, start: d(130), end: d(135)},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"core.align": d(30), "nn.train": d(60), "align.finetune": d(40), "metrics.eval": d(5)}
	for layer, w := range want {
		if self[layer] != w {
			t.Errorf("self time of %s = %v, want %v", layer, self[layer], w)
		}
	}
	allocs := selfAllocs(spans)
	if allocs["core.align"] != 300 || allocs["nn.train"] != 300 || allocs["align.finetune"] != 400 {
		t.Errorf("self allocs = %v, want core.align 300, nn.train 300, align.finetune 400", allocs)
	}
}

func TestStageObserverSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("core.align", -1)
	obs := tr.stageObserver(root)
	for _, ev := range []core.Progress{
		{Stage: core.StageOrbitCounts, Done: 0}, {Stage: core.StageOrbitCounts, Done: 2},
		{Stage: core.StageLaplacians, Done: 0}, {Stage: core.StageLaplacians, Done: 2},
		{Stage: core.StageTrain, Done: 1}, {Stage: core.StageTrain, Done: 2},
		{Stage: core.StageFineTune, Done: 0, Iters: 1}, {Stage: core.StageFineTune, Done: 1},
		{Stage: "a-stage-added-later", Done: 1},
		{Stage: core.StageIntegrate, Done: 1},
	} {
		obs(ev)
	}
	tr.end(root)
	var layers []string
	for i, s := range tr.spans[1:] {
		layers = append(layers, s.layer)
		if s.parent != root || s.end < s.start {
			t.Errorf("span %d (%s) has parent %d and interval [%v, %v]", i+1, s.layer, s.parent, s.start, s.end)
		}
		if i > 0 && s.start < tr.spans[i].end {
			t.Errorf("span %s starts before %s ends", s.layer, tr.spans[i].layer)
		}
	}
	want := []string{"orbit.count", "gom.build", "nn.train", "align.finetune", "align.integrate"}
	if len(layers) != len(want) {
		t.Fatalf("stage spans %v, want %v", layers, want)
	}
	for i := range want {
		if layers[i] != want[i] {
			t.Fatalf("stage spans %v, want %v", layers, want)
		}
	}
}

func TestHostSpeedScale(t *testing.T) {
	for _, c := range []struct {
		samples []float64
		want    float64
	}{
		{[]float64{refNominal}, 1},
		// A host twice as slow as the reference: durations halve.
		{[]float64{2 * refNominal, 9, 2 * refNominal}, 0.5},
		{[]float64{refNominal / 2, refNominal / 2, 1}, 2},
	} {
		h := &hostSpeed{samples: c.samples}
		if got := h.scale(); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("scale of samples %v = %v, want %v", c.samples, got, c.want)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	tr.end(tr.begin("core.align", -1))
	if tr.stageObserver(-1) != nil {
		t.Error("a nil tracer installed a progress observer")
	}
}

// BenchmarkObserverEvent is the cost the traced run adds to each
// progress event core.Align emits; README.md turns it into the tracing
// overhead per operation.
func BenchmarkObserverEvent(b *testing.B) {
	tr := newTracer()
	obs := tr.stageObserver(tr.begin("core.align", -1))
	ev := core.Progress{Stage: core.StageTrain, Done: 1}
	for b.Loop() {
		obs(ev)
	}
}
