// Command bench is the repository's end-to-end benchmark. Each run sets
// up one workload from a seed, measures it for a fixed time, checks the
// answers, and prints one JSON object as the last line of standard
// output:
//
//	bash bench/run.sh --workload paper-movie --seed 1 --seconds 30 --trace 0
//
// With -trace 0 the object carries the end-to-end metrics; with -trace 1
// the same workload runs with spans recorded around every call into a
// layer and the object carries the per-layer metrics instead. The
// metric roster lives in table.go and is mirrored by BENCHMARK.json at
// the repository root; README.md explains the workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// A run performs its set-up at least setupMinRepeats times, and more
// (up to setupMaxRepeats) until setupMinTime has passed; setup_s is the
// median. Set-ups take milliseconds and single ones vary by a factor of
// two on a shared host, so a run takes the median of about a hundred.
const (
	setupMinRepeats = 5
	setupMaxRepeats = 150
	setupMinTime    = time.Second
)

// options is one run's configuration.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// smoke shrinks every input to toy size (tests only).
	smoke bool
}

// outcome is what a workload hands back to the harness: the value of
// every metric it measured, keyed by name, and its operation counts.
type outcome struct {
	values    map[string]float64
	attempted int
	// failed counts operations that errored or failed a check.
	failed int
	// notes are human-readable lines for standard error.
	notes []string
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

// fail counts one failed operation and notes why.
func (o *outcome) fail(why string) {
	o.failed++
	o.notes = append(o.notes, "FAILED: "+why)
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	run  func(opts options) (*outcome, error)
}

var workloads = []workload{
	{"paper-movie", runPaperMovie},
	{"refine-dense", runRefineDense},
	{"ann-40k", runANN40k},
	{"serve-mixed", runServeMixed},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricEntry is one reported metric in the output object.
type metricEntry struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the output object.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricEntry `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the workload and writes the report. It returns
// the process exit code: 0 when every check passed, 1 when a check
// failed (the report is still printed), 2 on a usage or set-up error
// (no report).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opts options
	var trace int
	fs.StringVar(&opts.workload, "workload", "", "workload to run: "+workloadNames())
	fs.Int64Var(&opts.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&opts.seconds, "seconds", 30, "how long the measured phase runs")
	fs.IntVar(&trace, "trace", 0, "0 reports end-to-end metrics, 1 runs traced and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(opts.workload)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want %s)\n", opts.workload, workloadNames())
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "bench: -trace must be 0 or 1, got %d\n", trace)
		return 2
	}
	if opts.seconds <= 0 {
		fmt.Fprintf(stderr, "bench: -seconds must be positive, got %v\n", opts.seconds)
		return 2
	}
	opts.trace = trace == 1
	rep, notes, err := measure(w, opts)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 2
	}
	for _, line := range notes {
		fmt.Fprintln(stderr, line)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct {
		return 1
	}
	return 0
}

// measure runs one workload and assembles its report: every metric the
// run's mode declares, with its unit.
func measure(w workload, opts options) (*report, []string, error) {
	out, err := w.run(opts)
	if err != nil {
		return nil, nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, nil, err
	}
	out.values["peak_rss_mb"], out.values["go.peak_rss_mb"] = rss, rss
	decls := endToEndMetrics
	if opts.trace {
		decls = perLayerMetrics
	}
	rep := &report{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricEntry, len(decls)),
	}
	notes := append([]string(nil), out.notes...)
	for _, d := range decls {
		v, ok := out.values[d.Name]
		if !ok {
			return nil, nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		rep.Metrics[d.Name] = metricEntry{Value: v, Unit: d.Unit}
		notes = append(notes, fmt.Sprintf("%-28s %14.6g %s", d.Name, v, d.Unit))
	}
	if !opts.trace {
		for _, d := range candidateMetrics {
			notes = append(notes, fmt.Sprintf("candidate %s %s %s", d.Name, strconv.FormatFloat(out.values[d.Name], 'g', -1, 64), d.Unit))
		}
	}
	if rep.Attempted < 1 {
		return nil, nil, fmt.Errorf("no operation completed")
	}
	return rep, notes, nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}

// timeSetup runs setup repeatedly (see setupMinRepeats), keeps the last
// result, and returns the median duration in seconds. Each repeat starts
// after a garbage collection, so no repeat pays for another's garbage.
// release, when non-nil, frees the results that are not kept.
func timeSetup[T any](setup func() (T, error), release func(T)) (T, float64, error) {
	var kept T
	var durs []float64
	start := time.Now()
	for i := 0; i < setupMinRepeats || (i < setupMaxRepeats && time.Since(start) < setupMinTime); i++ {
		if i > 0 && release != nil {
			release(kept)
		}
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		durs = append(durs, time.Since(t0).Seconds())
		if err != nil {
			return kept, 0, err
		}
		kept = v
	}
	return kept, median(durs), nil
}
