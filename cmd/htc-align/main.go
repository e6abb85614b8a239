// Command htc-align aligns two networks stored in any registered graph
// format and prints the predicted anchor links by node id.
//
// Usage:
//
//	htc-align -source s.edges -target t.edges [-format auto|htc-graph|edgelist|json|adjlist]
//	          [-config '{"epochs":30,"similarity":"topk"}' | -config @config.json]
//	          [-variant HTC|HTC-L|HTC-H|HTC-LT|HTC-DT[,more...]]
//	          [-truth truth.txt] [-top 1] [-progress]
//	          [-cpuprofile cpu.out] [-memprofile mem.out]
//
// -format selects the input reader; the default sniffs each file by
// content, so SNAP-style edge lists, JSON GraphSpecs, adjacency lists
// and the library's own htc-graph format all work unannounced. Node ids
// are arbitrary strings; predictions are printed as "sourceID targetID".
//
// The optional truth file contains one "sourceID targetID" pair per line
// (the ids of the loaded files — plain indices for htc-graph inputs) and
// enables precision/MRR evaluation.
//
// -config sets every pipeline knob with one JSON document, given inline
// or read from the file named after "@". It is the "config" object of an
// htc-server request, and htc.ParseConfig decodes it as strictly: an
// unknown field or trailing data is an error, and so is a knob the pair's
// resolved similarity backend would ignore. Omitted fields take the
// library defaults.
//
// -variant accepts a comma-separated list that replaces the config's
// variant (setting both is an error): the pair is prepared once and
// every variant aligns over the shared artifacts (staged API), printing
// one section per variant. The first variant that needs an orbit count
// or Laplacian family builds it, and its "# timings:" line carries the
// build. -progress streams per-stage progress (with per-epoch ticks) to
// stderr.
//
// ANN runs print a "# ann:" line with the index's skew statistics —
// bucket balance, re-hashed hot buckets and the mean/max re-rank pool.
// Refined runs print a "# refine:" line with the MNC trajectory and,
// with -truth, both the refined and the unrefined evaluation.
//
// -cpuprofile and -memprofile write pprof CPU and heap profiles of the
// run; the "# timings:" line additionally breaks down per-stage heap
// allocation so regressions are visible without a profile.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	htc "github.com/htc-align/htc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("htc-align: ")

	sourcePath := flag.String("source", "", "source graph file (required)")
	targetPath := flag.String("target", "", "target graph file (required)")
	format := flag.String("format", "", "input format: htc-graph, edgelist, json, adjlist (default: sniff by content)")
	config := flag.String("config", "", "pipeline config as JSON, or @file to read it (default: every library default)")
	variant := flag.String("variant", "", "pipeline variant(s), comma-separated: HTC, HTC-L, HTC-H, HTC-LT, HTC-DT (default: the config's variant)")
	truthPath := flag.String("truth", "", "optional ground-truth file for evaluation")
	top := flag.Int("top", 1, "print the top-N candidates per source node")
	progress := flag.Bool("progress", false, "stream pipeline progress to stderr")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	flag.Parse()

	if *sourcePath == "" || *targetPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	base, err := htc.ParseConfig(*config)
	if err != nil {
		log.Fatal(err)
	}
	variants := []htc.Variant{base.Variant}
	if *variant != "" {
		if base.Variant != htc.VariantFull {
			log.Fatalf("-variant %s and the config's variant %s: set one or the other", *variant, base.Variant)
		}
		variants = nil
		for _, name := range strings.Split(*variant, ",") {
			v, err := htc.ParseVariant(name)
			if err != nil {
				log.Fatal(err)
			}
			variants = append(variants, v)
		}
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
		}()
	}
	pair, err := htc.LoadPair(*sourcePath, *targetPath, htc.LoadOptions{Format: *format})
	if err != nil {
		log.Fatal(err)
	}
	gs, gt := pair.Source, pair.Target
	// The server's admission check: refuse a contradictory config before
	// paying for orbit counting.
	if err := base.ValidateSimilarity(gs.N(), gt.N()); err != nil {
		log.Fatal(err)
	}

	if *progress {
		base.Progress = progressLogger()
	}
	prep, err := htc.Prepare(gs, gt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("# prepared pair %.12s… (shared by %d variant(s))\n", prep.Hash(), len(variants))

	var truth htc.Truth
	if *truthPath != "" {
		truth, err = htc.LoadTruthFile(*truthPath, pair.SourceIDs, pair.TargetIDs)
		if err != nil {
			log.Fatal(err)
		}
	}

	for _, v := range variants {
		cfg := base
		cfg.Variant = v
		res, err := prep.Align(cfg)
		if err != nil {
			log.Fatal(err)
		}
		simNote := "sim=" + res.SimBackend
		if res.CandidateK > 0 {
			simNote = fmt.Sprintf("%s k=%d", simNote, res.CandidateK)
		}
		if res.AnnBits > 0 {
			simNote = fmt.Sprintf("%s bits=%d probes=%d", simNote, res.AnnBits, res.AnnProbes)
		}
		simNote = fmt.Sprintf("%s prec=%s", simNote, res.Precision)
		fmt.Printf("# aligned %d source nodes (%s) to %d target nodes (%s) (%s, %s)\n",
			gs.N(), pair.SourceFormat, gt.N(), pair.TargetFormat, v, simNote)
		fmt.Printf("# timings: %v\n", res.Timings)
		if st := res.Ann; st != nil {
			fmt.Printf("# ann: buckets=%d maxbucket=%d rehashed=%d pool-mean=%.1f pool-max=%d\n",
				st.Buckets, st.MaxBucket, st.RehashedBuckets, st.PoolRowsMean, st.PoolRowsMax)
		}
		if res.PreRefineSim != nil {
			fmt.Printf("# refine: iters=%d token-k=%d mnc %.4f -> %.4f\n",
				len(res.RefineMNC)-1, res.RefineTokenK, res.RefineMNC[0], res.RefineMNC[len(res.RefineMNC)-1])
		}

		if *top <= 1 {
			for _, p := range res.PredictNames(pair.SourceIDs, pair.TargetIDs) {
				fmt.Printf("%s %s\n", p[0], p[1])
			}
		} else {
			// The Sim scan visits candidates best-first, so the sparse
			// backend prints its top-N without ever touching a dense row.
			for s := 0; s < gs.N(); s++ {
				fmt.Print(pair.SourceIDs.ID(s))
				printed := 0
				res.Sim.Scan(s, func(t int, _ float64) {
					if printed < *top {
						fmt.Printf(" %s", pair.TargetIDs.ID(t))
						printed++
					}
				})
				fmt.Println()
			}
		}

		if truth != nil {
			rep := htc.EvaluateSim(res.Sim, truth, 1, 10)
			fmt.Printf("# evaluation: %v\n", rep)
			if res.PreRefineSim != nil {
				pre := htc.EvaluateSim(res.PreRefineSim, truth, 1, 10)
				fmt.Printf("# evaluation (unrefined): %v\n", pre)
			}
		}
	}
}

// progressLogger streams stage transitions and coarse training progress
// to stderr: one line per stage, plus a tick every tenth of the epoch
// budget.
func progressLogger() htc.Observer {
	lastStage := ""
	return func(ev htc.Progress) {
		switch {
		case ev.Stage != lastStage:
			lastStage = ev.Stage
			fmt.Fprintf(os.Stderr, "[%s] started (%d units)\n", ev.Stage, ev.Total)
		case ev.Stage == htc.StageTrain && ev.Total >= 10 && ev.Done%(ev.Total/10) == 0:
			fmt.Fprintf(os.Stderr, "[%s] epoch %d/%d loss=%.4f\n", ev.Stage, ev.Done, ev.Total, ev.Loss)
		}
	}
}
