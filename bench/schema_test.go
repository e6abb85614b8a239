package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// nameGrammar is the grammar of workload and metric names.
var nameGrammar = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// unitGrammar is the grammar of metric units.
var unitGrammar = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEndMetrics) {
		t.Errorf("end_to_end in BENCHMARK.json differs from endToEndMetrics:\n%+v\n%+v", bf.EndToEnd, endToEndMetrics)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayerMetrics) {
		t.Errorf("per_layer in BENCHMARK.json differs from perLayerMetrics")
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", bf.RunSeconds)
	}
	if !reflect.DeepEqual(bf.Paths, []string{"bench"}) || len(bf.Command) == 0 || bf.Command[len(bf.Command)-1] != "bench/run.sh" {
		t.Errorf("paths %v and command %v must name this directory and its run.sh", bf.Paths, bf.Command)
	}
}

func TestMetricDeclarations(t *testing.T) {
	seen := map[string]bool{}
	all := append(append(append([]metricDecl(nil), endToEndMetrics...), candidateMetrics...), perLayerMetrics...)
	for i, d := range all {
		if !nameGrammar.MatchString(d.Name) {
			t.Errorf("metric name %q breaks the grammar", d.Name)
		}
		if !unitGrammar.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q breaks the grammar", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
		if endToEnd := i < len(endToEndMetrics); endToEnd != (d.Bound != nil && *d.Bound > 0) {
			t.Errorf("metric %s: end-to-end metrics, and only they, carry a positive bound", d.Name)
		}
	}
	if !seen["setup_s"] {
		t.Errorf("setup_s is not declared")
	}
	for _, w := range workloads {
		if !nameGrammar.MatchString(w.name) {
			t.Errorf("workload name %q breaks the grammar", w.name)
		}
	}
	for _, bad := range []string{"", "-lead", "has space", "slash/in", strings.Repeat("x", 65)} {
		if nameGrammar.MatchString(bad) {
			t.Errorf("name grammar accepts %q", bad)
		}
	}
}
