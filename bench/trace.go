package main

import (
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"time"

	"github.com/htc-align/htc/internal/core"
)

// span is one interval the traced run records around a call into a
// layer. Times are offsets from the tracer's origin; allocs are the
// process's cumulative heap-allocation counter at both ends.
type span struct {
	layer                string
	parent               int // index of the enclosing span, or -1
	start, end           time.Duration
	allocStart, allocEnd uint64
}

func (s span) dur() time.Duration { return s.end - s.start }
func (s span) alloc() uint64      { return s.allocEnd - s.allocStart }

// tracer keeps the spans of a run in memory. A nil *tracer records
// nothing, so the untraced run pays no more than a nil check per call.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its index for end.
func (t *tracer) begin(layer string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{layer: layer, parent: parent, start: time.Since(t.origin), allocStart: heapAllocs()})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].end = time.Since(t.origin)
	t.spans[i].allocEnd = heapAllocs()
}

// stageLayers names the layer each core.Align progress stage runs in.
// A stage missing here stays inside the core span's self time.
var stageLayers = map[string]string{
	core.StageOrbitCounts: "orbit.count",
	core.StageLaplacians:  "gom.build",
	core.StageTrain:       "nn.train",
	core.StageFineTune:    "align.finetune",
	core.StageIntegrate:   "align.integrate",
	core.StageRefine:      "refine.refine",
}

// stageObserver turns core.Align's progress events into child spans of
// the span at index parent. Every stage ends at its last event. The two
// build stages announce their start with a Done = 0 event; every other
// stage starts where the previous one ended, or at the parent's start.
// The pipeline serialises observer calls, so the closure needs no lock.
func (t *tracer) stageObserver(parent int) core.Observer {
	if t == nil {
		return nil
	}
	cur, curStage := -1, ""
	lastAt, lastAlloc := t.spans[parent].start, t.spans[parent].allocStart
	return func(ev core.Progress) {
		now, alloc := time.Since(t.origin), heapAllocs()
		if ev.Stage != curStage {
			curStage, cur = ev.Stage, -1
			if layer, ok := stageLayers[ev.Stage]; ok {
				start, a0 := lastAt, lastAlloc
				if ev.Done == 0 && (ev.Stage == core.StageOrbitCounts || ev.Stage == core.StageLaplacians) {
					start, a0 = now, alloc
				}
				t.spans = append(t.spans, span{layer: layer, parent: parent, start: start, allocStart: a0})
				cur = len(t.spans) - 1
			}
		}
		if cur >= 0 {
			t.spans[cur].end, t.spans[cur].allocEnd = now, alloc
		}
		lastAt, lastAlloc = now, alloc
	}
}

// selfTimes returns, per layer, the summed self time of its spans: each
// span's duration minus the part of it that its children cover. Children
// may overlap one another (parallel calls); the covered part is the
// length of their union, clipped to the parent.
func selfTimes(spans []span) map[string]time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.layer] += s.dur() - covered(s, spans, children[i])
	}
	return out
}

// covered is the length of the union of the child intervals, clipped to
// the parent's interval.
func covered(parent span, spans []span, kids []int) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].start, parent.start), min(spans[k].end, parent.end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total, reach time.Duration
	for _, v := range ivs {
		if v.lo > reach {
			reach = v.lo
		}
		if v.hi > reach {
			total += v.hi - reach
			reach = v.hi
		}
	}
	return total
}

// selfAllocs is selfTimes for allocated bytes: a span's allocation minus
// its children's.
func selfAllocs(spans []span) map[string]uint64 {
	out := make(map[string]uint64)
	for _, s := range spans {
		out[s.layer] += s.alloc()
		if s.parent >= 0 {
			out[spans[s.parent].layer] -= s.alloc()
		}
	}
	return out
}

// heapAllocs is the cumulative count of bytes allocated on the heap.
// runtime/metrics reads it without stopping the world, which keeps
// per-event sampling cheap.
func heapAllocs() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// gcSnapshot is a reading of the garbage collector's counters.
type gcSnapshot struct {
	cycles uint32
	pause  time.Duration
}

// readGC reads the collector's cycle count and summed pause time. It
// stops the world briefly, so it runs only at the ends of a measured
// phase.
func readGC() gcSnapshot {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcSnapshot{cycles: m.NumGC, pause: time.Duration(m.PauseTotalNs)}
}
