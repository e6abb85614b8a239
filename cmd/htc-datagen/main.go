// Command htc-datagen generates the synthetic benchmark datasets (stand-ins
// for the paper's five network pairs; each generator in internal/datasets
// documents the regime it simulates) and writes them in the library's text
// format, plus a ground-truth file consumable by htc-align.
//
// Usage:
//
//	htc-datagen -dataset allmovie|douban|flickr|econ|bn [-n 0] [-seed 1]
//	            [-remove 0.2] [-out DIR] [-format htc-graph|edgelist|json|adjlist]
//	htc-datagen -stats            # print the Table I statistics
//
// For econ and bn (single networks), -remove controls the edge-removal
// ratio used to derive the target, as in the paper's robustness study.
//
// -format selects the output writer (default htc-graph). The edgelist
// format carries no attributes, so it only suits the attribute-free
// datasets (econ, bn); json and adjlist carry everything. The truth file
// is written as ID-keyed pairs in every case, consumable by htc-align
// -truth whatever the graph format.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	htc "github.com/htc-align/htc"
	"github.com/htc-align/htc/internal/datasets"
	"github.com/htc-align/htc/internal/experiments"
	"github.com/htc-align/htc/internal/ingest"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("htc-datagen: ")

	dataset := flag.String("dataset", "", "dataset: allmovie, douban, flickr, econ, bn")
	n := flag.Int("n", 0, "size override (0 = default scale)")
	seed := flag.Int64("seed", 1, "random seed")
	remove := flag.Float64("remove", 0.2, "edge-removal ratio for econ/bn targets")
	out := flag.String("out", ".", "output directory")
	format := flag.String("format", "htc-graph", "output format: htc-graph, edgelist, json, adjlist")
	stats := flag.Bool("stats", false, "print Table I statistics and exit")
	flag.Parse()

	if *stats {
		_, text := experiments.Table1(experiments.Options{Seed: *seed})
		fmt.Print(text)
		return
	}

	var pair *datasets.Pair
	switch *dataset {
	case "allmovie":
		pair = htc.AllmovieImdb(*n, *seed)
	case "douban":
		pair = htc.Douban(*n, *seed)
	case "flickr":
		pair = htc.FlickrMyspace(*n, *seed)
	case "econ", "bn":
		var src *htc.Graph
		if *dataset == "econ" {
			src = htc.Econ(*n, *seed)
		} else {
			src = htc.BN(*n, *seed)
		}
		target, truth := htc.MakeTarget(src, *remove, *seed+1)
		pair = &datasets.Pair{Name: *dataset, Source: src, Target: target, Truth: truth}
	case "":
		flag.Usage()
		os.Exit(2)
	default:
		log.Fatalf("unknown dataset %q", *dataset)
	}

	ext := map[string]string{"htc-graph": ".graph", "edgelist": ".edges", "json": ".json", "adjlist": ".adj"}[*format]
	if ext == "" {
		log.Fatalf("unknown output format %q (use htc-graph, edgelist, json or adjlist)", *format)
	}
	writeGraph(filepath.Join(*out, *dataset+"_source"+ext), pair.Source, *format)
	writeGraph(filepath.Join(*out, *dataset+"_target"+ext), pair.Target, *format)
	writeTruth(filepath.Join(*out, *dataset+"_truth.txt"), pair.Truth, pair.Source.N(), pair.Target.N())
	fmt.Printf("wrote %s pair (%s): source %v, target %v, %d anchors\n",
		pair.Name, *format, pair.Source, pair.Target, pair.Truth.NumAnchors())
}

func writeGraph(path string, g *htc.Graph, format string) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := htc.WriteGraphAs(f, g, nil, format); err != nil {
		log.Fatalf("%s: %v", path, err)
	}
}

func writeTruth(path string, truth htc.Truth, ns, nt int) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := ingest.WriteTruth(f, truth, ingest.Identity(ns), ingest.Identity(nt)); err != nil {
		log.Fatalf("%s: %v", path, err)
	}
}
