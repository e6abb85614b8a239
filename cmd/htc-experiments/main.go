// Command htc-experiments regenerates the tables and figures of the
// paper's evaluation section on the simulated datasets.
//
// Usage:
//
//	htc-experiments -run table1|table2|table3|fig6|fig7|fig8|fig9|fig9add|fig10|fig11|all
//	                [-scale 1.0] [-seed 1] [-epochs 0] [-progress]
//	                [-config '{"similarity":"topk","refine_iters":3}' | -config @config.json]
//	htc-experiments -source s.edges -target t.edges [-truth pairs.tsv]
//	                [-format auto|htc-graph|edgelist|json|adjlist] ...
//
// The second form runs the full variant roster on a real dataset loaded
// through the ingestion API instead of the simulated pairs: -source and
// -target accept any registered graph format (sniffed by content unless
// -format names one) and -truth takes ID-keyed anchor pairs.
//
// Scale shrinks the datasets proportionally (useful for quick runs);
// epochs overrides training length (0 = defaults); -progress streams
// per-stage pipeline progress to stderr. -config is the base pipeline
// configuration of every HTC run, in the JSON of htc-align -config and
// the server's "config", so the top-k and ANN approximations, the
// precision tier and refinement can be measured against the paper
// numbers (baselines are unaffected). It must not set seed, epochs or
// variant: -seed, -epochs and each experiment's variant roster own them.
// With refine_iters set, the variant tables gain a "p@1 raw"
// (unrefined) column, so the refinement lift is measurable per variant.
// Output is plain text, one section per artefact; -run all regenerates
// the paper's evaluation in order.
//
// The variant and hyperparameter sweeps (table3, fig10, fig11) run on
// the staged Prepare/Align API: each graph pair's orbit counts and
// Laplacians are built once and shared across every configuration.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	htc "github.com/htc-align/htc"
	"github.com/htc-align/htc/internal/datasets"
	"github.com/htc-align/htc/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("htc-experiments: ")

	run := flag.String("run", "all", "artefact to regenerate (table1..3, fig6..9, fig9add, fig10, fig11, all)")
	scale := flag.Float64("scale", 1.0, "dataset scale multiplier")
	seed := flag.Int64("seed", 1, "random seed")
	epochs := flag.Int("epochs", 0, "training epochs override (0 = defaults)")
	progress := flag.Bool("progress", false, "stream pipeline stage progress to stderr")
	config := flag.String("config", "", "base HTC pipeline config as JSON, or @file to read it")
	sourcePath := flag.String("source", "", "custom run: source graph file (any registered format)")
	targetPath := flag.String("target", "", "custom run: target graph file")
	format := flag.String("format", "", "custom run: input format (default: sniff by content)")
	truthPath := flag.String("truth", "", "custom run: ID-keyed ground-truth pairs file")
	flag.Parse()

	cfg, err := htc.ParseConfig(*config)
	fail(err)
	if cfg.Seed != 0 || cfg.Epochs != 0 || cfg.Variant != htc.VariantFull {
		log.Fatal("-config must not set seed, epochs or variant: pass -seed and -epochs, and each experiment runs its own variant roster")
	}
	if *progress {
		cfg.Progress = stageLogger()
	}
	o := experiments.Options{Scale: *scale, Seed: *seed, Epochs: *epochs, Config: cfg}
	start := time.Now()

	if *sourcePath != "" || *targetPath != "" {
		runCustom(*sourcePath, *targetPath, *format, *truthPath, o)
		fmt.Printf("total experiment time: %v\n", time.Since(start).Round(time.Second))
		return
	}

	var table2Cells []experiments.Cell
	table2 := func() {
		cells, text, err := experiments.Table2(o)
		fail(err)
		table2Cells = cells
		fmt.Println(text)
	}

	steps := map[string]func(){
		"table1": func() { _, text := experiments.Table1(o); fmt.Println(text) },
		"table2": table2,
		"table3": func() { _, text, err := experiments.Table3(o); fail(err); fmt.Println(text) },
		"fig6":   func() { _, text, err := experiments.Fig6(o); fail(err); fmt.Println(text) },
		"fig7": func() {
			if table2Cells == nil {
				table2()
			}
			fmt.Println(experiments.Fig7(table2Cells))
		},
		"fig8": func() { _, text, err := experiments.Fig8(o); fail(err); fmt.Println(text) },
		"fig9": func() { _, text, err := experiments.Fig9(o); fail(err); fmt.Println(text) },
		"fig9add": func() {
			_, text, err := experiments.Fig9Additive(o)
			fail(err)
			fmt.Println(text)
		},
		"fig10": func() { _, text, err := experiments.Fig10(o); fail(err); fmt.Println(text) },
		"fig11": func() { _, text, err := experiments.Fig11(o); fail(err); fmt.Println(text) },
	}

	order := []string{"table1", "table2", "fig7", "table3", "fig6", "fig8", "fig9", "fig10", "fig11"}
	if *run == "all" {
		for _, name := range order {
			steps[name]()
		}
	} else if step, ok := steps[*run]; ok {
		step()
	} else {
		log.Printf("unknown artefact %q", *run)
		flag.Usage()
		os.Exit(2)
	}
	fmt.Printf("total experiment time: %v\n", time.Since(start).Round(time.Second))
}

func fail(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// runCustom loads a real dataset through the ingestion API and sweeps
// the variant roster over it.
func runCustom(sourcePath, targetPath, format, truthPath string, o experiments.Options) {
	if sourcePath == "" || targetPath == "" {
		log.Fatal("custom runs need both -source and -target")
	}
	loaded, err := htc.LoadPair(sourcePath, targetPath, htc.LoadOptions{Format: format})
	fail(err)
	pair := &datasets.Pair{
		Name: "custom", Source: loaded.Source, Target: loaded.Target,
		SourceIDs: loaded.SourceIDs, TargetIDs: loaded.TargetIDs,
	}
	if truthPath != "" {
		truth, err := htc.LoadTruthFile(truthPath, loaded.SourceIDs, loaded.TargetIDs)
		fail(err)
		pair.Truth = truth
	}
	_, text, err := experiments.Custom(pair, o)
	fail(err)
	fmt.Println(text)
}

// stageLogger returns a progress observer that prints one line per stage
// transition (not per epoch/iteration — a full experiment run emits tens
// of thousands of fine-grained events).
func stageLogger() htc.Observer {
	last := ""
	return func(ev htc.Progress) {
		if ev.Stage == last {
			return
		}
		last = ev.Stage
		fmt.Fprintf(os.Stderr, "  [stage] %s (%d/%d)\n", ev.Stage, ev.Done, ev.Total)
	}
}
