package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"github.com/htc-align/htc/internal/core"
	"github.com/htc-align/htc/internal/datasets"
)

// TestWorkloadsSmoke runs every workload at toy size, untraced and
// traced, and checks that each run passes its own correctness checks,
// emits exactly the metrics its mode declares, and that tracing leaves
// the answers bit for bit unchanged.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			seconds := 0.2
			if w.name == "serve-mixed" {
				seconds = 2
			}
			scores := map[bool][2]float64{}
			for _, traced := range []bool{false, true} {
				opts := options{workload: w.name, seed: 3, seconds: seconds, trace: traced, smoke: true}
				out, err := w.run(opts)
				if err != nil {
					t.Fatalf("trace=%v: %v", traced, err)
				}
				if out.failed != 0 || out.attempted == 0 {
					t.Fatalf("trace=%v: %d of %d operations failed: %v", traced, out.failed, out.attempted, out.notes)
				}
				scores[traced] = [2]float64{out.values["hits1"], out.values["mrr"]}
				decls := endToEndMetrics
				if traced {
					decls = perLayerMetrics
				}
				rep, _, err := measure(workload{w.name, func(options) (*outcome, error) { return out, nil }}, opts)
				if err != nil {
					t.Fatalf("trace=%v: %v", traced, err)
				}
				if len(rep.Metrics) != len(decls) {
					t.Errorf("trace=%v: emitted %d metrics, declared %d", traced, len(rep.Metrics), len(decls))
				}
				for _, d := range decls {
					if m, ok := rep.Metrics[d.Name]; !ok || m.Unit != d.Unit {
						t.Errorf("trace=%v: metric %s missing or in the wrong unit: %+v", traced, d.Name, m)
					}
				}
			}
			if w.name != "serve-mixed" && scores[false] != scores[true] {
				t.Errorf("traced run scored %v, untraced %v", scores[true], scores[false])
			}
		})
	}
}

// TestStageSpansMatchTimings cross-checks the spans the progress
// observer yields against the pipeline's own stage timings.
func TestStageSpansMatchTimings(t *testing.T) {
	p := datasets.AllmovieImdb(40, 1)
	tr := newTracer()
	sp := tr.begin("core.align", -1)
	res, err := core.Align(p.Source, p.Target, core.Config{Epochs: 8, MaxFineTuneIters: 3, RefineIters: 2, Seed: 1, Progress: tr.stageObserver(sp)})
	tr.end(sp)
	if err != nil {
		t.Fatal(err)
	}
	self := selfTimes(tr.spans)
	tm := res.Timings
	for layer, want := range map[string]time.Duration{
		"orbit.count": tm.OrbitCounting, "gom.build": tm.Laplacians, "nn.train": tm.Training,
		"align.finetune": tm.FineTuning, "refine.refine": tm.Refinement,
	} {
		got := self[layer]
		if diff := (got - want).Abs(); diff > want/4+20*time.Millisecond {
			t.Errorf("%s: spans say %v, Result.Timings %v", layer, got, want)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "no-such-workload"},
		{"-workload", "paper-movie", "-trace", "2"},
		{"-workload", "paper-movie", "-seconds", "0"},
		{"-no-such-flag"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q, want a non-zero exit and no report", args, code, stdout.String())
		}
	}
}

func TestReportIsOneJSONLine(t *testing.T) {
	fake := workload{"test-fake", func(options) (*outcome, error) {
		out := newOutcome()
		out.attempted = 3
		for _, d := range endToEndMetrics {
			out.values[d.Name] = 1.5
		}
		return out, nil
	}}
	defer func(saved []workload) { workloads = saved }(workloads)
	workloads = append(workloads[:len(workloads):len(workloads)], fake)

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", fake.name, "-seconds", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rep struct {
		Correct   *bool                  `json:"correct"`
		Attempted *int                   `json:"attempted"`
		Failed    *int                   `json:"failed"`
		Metrics   map[string]metricEntry `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Correct == nil || !*rep.Correct || rep.Attempted == nil || *rep.Attempted != 3 || rep.Failed == nil || *rep.Failed != 0 {
		t.Errorf("report header wrong: %s", lines[len(lines)-1])
	}
	if len(rep.Metrics) != len(endToEndMetrics) {
		t.Errorf("report carries %d metrics, want %d", len(rep.Metrics), len(endToEndMetrics))
	}
}
