package experiments

import (
	"fmt"
	"sort"
	"strings"

	"github.com/htc-align/htc/internal/core"
	"github.com/htc-align/htc/internal/datasets"
	"github.com/htc-align/htc/internal/graph"
	"github.com/htc-align/htc/internal/metrics"
	"github.com/htc-align/htc/internal/orbit"
)

// OrbitImportance holds one dataset's posterior orbit weights (Fig. 6).
type OrbitImportance struct {
	Dataset string
	// Gamma[k] is orbit k's weight γk.
	Gamma []float64
}

// Fig6 regenerates the orbit-importance analysis: run full HTC on the
// three real-world pairs and report the γ distribution over orbits.
func Fig6(o Options) ([]OrbitImportance, string, error) {
	o = o.withDefaults()
	var rows []OrbitImportance
	for _, pair := range o.realWorldPairs() {
		res, err := core.Align(pair.Source, pair.Target, o.htcConfig())
		if err != nil {
			return nil, "", fmt.Errorf("HTC on %s: %w", pair.Name, err)
		}
		gamma := make([]float64, len(res.PerOrbit))
		for _, oc := range res.PerOrbit {
			gamma[oc.Orbit] = oc.Gamma
		}
		rows = append(rows, OrbitImportance{Dataset: pair.Name, Gamma: gamma})
	}
	var b strings.Builder
	b.WriteString("== Fig 6: orbit importance (γ of Eq. 15) ==\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "\n-- %s --\n", r.Dataset)
		idx := make([]int, len(r.Gamma))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(i, j int) bool { return r.Gamma[idx[i]] > r.Gamma[idx[j]] })
		for rank, k := range idx {
			bar := strings.Repeat("█", int(r.Gamma[k]*200))
			fmt.Fprintf(&b, "#%2d orbit %2d %-15s γ=%.4f %s\n", rank+1, k, orbit.Names[k], r.Gamma[k], bar)
		}
	}
	return rows, b.String(), nil
}

// RobustnessPoint is one (dataset, removal ratio, method) accuracy sample
// of the Fig. 9 study.
type RobustnessPoint struct {
	Dataset string
	Ratio   float64
	Method  string
	P1      float64
}

// Fig9 regenerates the robustness study: targets derived from Econ and BN
// with 10–50% edge removal, all methods evaluated at each level.
func Fig9(o Options) ([]RobustnessPoint, string, error) {
	o = o.withDefaults()
	sources := []struct {
		name string
		g    *graph.Graph
	}{
		{"Econ", datasets.Econ(o.size(1258), o.Seed+3)},
		{"BN", datasets.BN(o.size(1781), o.Seed+4)},
	}
	ratios := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	var points []RobustnessPoint
	for _, src := range sources {
		for _, ratio := range ratios {
			target, truth := datasets.MakeTarget(src.g, ratio, o.Seed+int64(ratio*100))
			pair := &datasets.Pair{Name: src.name, Source: src.g, Target: target, Truth: truth}
			for _, m := range o.methods() {
				cell, err := runMethod(m, pair, o.Seed+200)
				if err != nil {
					return nil, "", err
				}
				points = append(points, RobustnessPoint{
					Dataset: src.name, Ratio: ratio, Method: cell.Method, P1: cell.P1,
				})
			}
		}
	}
	return points, renderFig9(points), nil
}

func renderFig9(points []RobustnessPoint) string {
	var b strings.Builder
	b.WriteString("== Fig 9: robustness against topological noise (p@1) ==\n")
	byDataset := map[string]map[string]map[float64]float64{}
	methodsSeen := map[string]bool{}
	var methodOrder []string
	ratioSet := map[float64]bool{}
	for _, p := range points {
		if byDataset[p.Dataset] == nil {
			byDataset[p.Dataset] = map[string]map[float64]float64{}
		}
		if byDataset[p.Dataset][p.Method] == nil {
			byDataset[p.Dataset][p.Method] = map[float64]float64{}
		}
		byDataset[p.Dataset][p.Method][p.Ratio] = p.P1
		if !methodsSeen[p.Method] {
			methodsSeen[p.Method] = true
			methodOrder = append(methodOrder, p.Method)
		}
		ratioSet[p.Ratio] = true
	}
	var ratios []float64
	for r := range ratioSet {
		ratios = append(ratios, r)
	}
	sort.Float64s(ratios)
	// Print dataset sections in sorted order: ranging the map directly
	// rendered the report in a different order every run (htc-lint
	// detrange catch).
	datasets := make([]string, 0, len(byDataset))
	for ds := range byDataset {
		datasets = append(datasets, ds)
	}
	sort.Strings(datasets)
	for _, ds := range datasets {
		methods := byDataset[ds]
		fmt.Fprintf(&b, "\n-- %s --\n%-8s", ds, "method")
		for _, r := range ratios {
			fmt.Fprintf(&b, " %7.1f", r)
		}
		b.WriteString("\n")
		for _, m := range methodOrder {
			fmt.Fprintf(&b, "%-8s", m)
			for _, r := range ratios {
				fmt.Fprintf(&b, " %7.4f", methods[m][r])
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// Fig9Additive is an extension of the robustness study: targets carry
// combined noise — a fraction of edges removed AND the same fraction of
// spurious random edges added (outright consistency violation, the
// harsher model GAlign's augmentations anticipate). It answers whether
// HTC's multi-orbit training also tolerates structure that was never in
// the source.
func Fig9Additive(o Options) ([]RobustnessPoint, string, error) {
	o = o.withDefaults()
	sources := []struct {
		name string
		g    *graph.Graph
	}{
		{"Econ+add", datasets.Econ(o.size(1258), o.Seed+3)},
		{"BN+add", datasets.BN(o.size(1781), o.Seed+4)},
	}
	ratios := []float64{0.1, 0.3, 0.5}
	var points []RobustnessPoint
	for _, src := range sources {
		for _, ratio := range ratios {
			target, truth := datasets.MakeTargetNoise(src.g, ratio, ratio, o.Seed+int64(ratio*100))
			pair := &datasets.Pair{Name: src.name, Source: src.g, Target: target, Truth: truth}
			for _, m := range o.methods() {
				cell, err := runMethod(m, pair, o.Seed+300)
				if err != nil {
					return nil, "", err
				}
				points = append(points, RobustnessPoint{
					Dataset: src.name, Ratio: ratio, Method: cell.Method, P1: cell.P1,
				})
			}
		}
	}
	return points, renderFig9(points), nil
}

// HyperPoint is one hyperparameter-sweep sample of the Fig. 10 study.
type HyperPoint struct {
	Dataset string
	Param   string
	Value   float64
	P1      float64
}

// Fig10 regenerates the hyperparameter study: sweeps of the orbit count K,
// embedding dimension d, neighbourhood size m and reinforcement rate β on
// Douban and Allmovie–Imdb. The whole grid runs over one Prepared per
// pair: the 13-orbit counts are shared by every point (including the K
// sweep — counting always covers all orbits), and the d/m/β sweeps
// additionally share one set of Laplacians.
func Fig10(o Options) ([]HyperPoint, string, error) {
	o = o.withDefaults()
	pairs := []*datasets.Pair{
		datasets.Douban(o.size(450), o.Seed+1),
		datasets.AllmovieImdb(o.size(400), o.Seed),
	}
	var points []HyperPoint
	preps := make(map[*datasets.Pair]*core.Prepared, len(pairs))
	for _, pair := range pairs {
		prep, err := core.Prepare(pair.Source, pair.Target)
		if err != nil {
			return nil, "", fmt.Errorf("preparing %s: %w", pair.Name, err)
		}
		preps[pair] = prep
	}
	run := func(pair *datasets.Pair, param string, value float64, cfg core.Config) error {
		res, err := preps[pair].Align(cfg)
		if err != nil {
			return fmt.Errorf("%s sweep on %s: %w", param, pair.Name, err)
		}
		p1 := metrics.EvaluateSim(res.Sim, pair.Truth, 1).PrecisionAt[1]
		points = append(points, HyperPoint{Dataset: pair.Name, Param: param, Value: value, P1: p1})
		return nil
	}
	for _, pair := range pairs {
		for _, k := range []int{1, 3, 5, 7, 9, 11, 13} {
			cfg := o.htcConfig()
			cfg.K = k
			if err := run(pair, "K", float64(k), cfg); err != nil {
				return nil, "", err
			}
		}
		for _, d := range []int{8, 16, 32, 64, 128} {
			cfg := o.htcConfig()
			cfg.Embed = d
			if err := run(pair, "d", float64(d), cfg); err != nil {
				return nil, "", err
			}
		}
		for _, m := range []int{5, 10, 20, 50} {
			cfg := o.htcConfig()
			cfg.M = m
			if err := run(pair, "m", float64(m), cfg); err != nil {
				return nil, "", err
			}
		}
		for _, beta := range []float64{1.1, 1.3, 1.5, 2.0} {
			cfg := o.htcConfig()
			cfg.Beta = beta
			if err := run(pair, "beta", beta, cfg); err != nil {
				return nil, "", err
			}
		}
	}
	var b strings.Builder
	b.WriteString("== Fig 10: hyperparameter study (p@1) ==\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%-16s %-5s %7.2f %8.4f\n", p.Dataset, p.Param, p.Value, p.P1)
	}
	return points, b.String(), nil
}
