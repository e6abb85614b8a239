// Package experiments regenerates every table and figure of the paper's
// evaluation section (§V) on the simulated datasets. Each driver returns a
// structured result plus a text rendering, so the same code backs the
// htc-experiments CLI and the root benchmark harness.
//
// Scale note: a Scale of 1.0 runs the laptop-sized dataset sizes each
// driver names; smaller scales shrink the datasets proportionally for quick
// runs and benchmarks. The *shape* of each result (method ordering,
// crossovers, factors) is the reproduction target, not absolute numbers.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	htc "github.com/htc-align/htc"
	"github.com/htc-align/htc/internal/align"
	"github.com/htc-align/htc/internal/baselines"
	"github.com/htc-align/htc/internal/core"
	"github.com/htc-align/htc/internal/datasets"
	"github.com/htc-align/htc/internal/graph"
	"github.com/htc-align/htc/internal/metrics"
)

// Options configures an experiment run.
type Options struct {
	// Scale multiplies the default dataset sizes (default 1.0; benchmark
	// presets use ≈ 0.3).
	Scale float64
	// Seed drives dataset generation and model initialisation.
	Seed int64
	// Epochs overrides training epochs (0 = method defaults).
	Epochs int
	// Config is the base configuration of every HTC pipeline run (the
	// htc-experiments -config flag): similarity backend, precision,
	// refinement and any other knob, plus a Progress observer. Seed and
	// Epochs above replace its own, each driver sets the variant and the
	// knobs it sweeps, and baselines ignore it.
	Config core.Config
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	return o
}

func (o Options) size(base int) int {
	n := int(float64(base) * o.Scale)
	if n < 60 {
		n = 60
	}
	return n
}

// htcConfig is the shared HTC configuration for all experiments: the
// base Config under the run's seed and epoch budget, with the
// laptop-sized 64/32 GCN widths wherever the base leaves them unset.
func (o Options) htcConfig() core.Config {
	cfg := o.Config
	cfg.Seed, cfg.Epochs = o.Seed, o.Epochs
	if cfg.Hidden <= 0 {
		cfg.Hidden = 64
	}
	if cfg.Embed <= 0 {
		cfg.Embed = 32
	}
	return cfg
}

// realWorldPairs generates the three "real-world" pairs at the requested
// scale.
func (o Options) realWorldPairs() []*datasets.Pair {
	return []*datasets.Pair{
		datasets.AllmovieImdb(o.size(800), o.Seed),
		datasets.Douban(o.size(900), o.Seed+1),
		datasets.FlickrMyspace(o.size(1000), o.Seed+2),
	}
}

// aligners builds the method roster of Table II. Supervised methods are
// flagged so the driver can hand them 10% of ground truth.
type method struct {
	aligner    baselines.Aligner
	supervised bool
}

func (o Options) methods() []method {
	epochs := o.Epochs
	return []method{
		{htc.HTC{Config: o.htcConfig()}, false},
		{baselines.GAlign{Epochs: epochs, Seed: o.Seed}, false},
		{baselines.FINAL{}, true},
		{baselines.PALE{Epochs: epochs, Seed: o.Seed}, true},
		{baselines.CENALP{Epochs: epochs, Rounds: 3, Seed: o.Seed}, true},
		{baselines.IsoRank{}, true},
		{baselines.REGAL{Seed: o.Seed}, false},
	}
}

// Cell is one method-on-dataset measurement.
type Cell struct {
	Method  string
	Dataset string
	P1, P10 float64
	MRR     float64
	Seconds float64
	// P1Unrefined is the pre-refinement p@1 of an HTC run whose config
	// enabled the RefiNA stage; Refined marks such runs (other cells
	// leave both zero).
	P1Unrefined float64
	Refined     bool
}

// simAligner is the optional richer face of an Aligner: it returns the
// backend's native similarity representation, so top-k runs are
// evaluated over candidate lists (pruned anchors = misses) instead of a
// floored dense materialisation that would inflate their ranks.
type simAligner interface {
	AlignSim(gs, gt *graph.Graph, seeds []baselines.Anchor) (align.Sim, error)
}

// runMethod executes one aligner on one pair and evaluates it.
func runMethod(m method, pair *datasets.Pair, seed int64) (Cell, error) {
	var seeds []baselines.Anchor
	if m.supervised {
		seeds = baselines.SampleSeeds(pair.Truth, 0.10, seed)
	}
	start := time.Now()
	var sim align.Sim
	if sa, ok := m.aligner.(simAligner); ok {
		s, err := sa.AlignSim(pair.Source, pair.Target, seeds)
		if err != nil {
			return Cell{}, fmt.Errorf("%s on %s: %w", m.aligner.Name(), pair.Name, err)
		}
		sim = s
	} else {
		matrix, err := m.aligner.Align(pair.Source, pair.Target, seeds)
		if err != nil {
			return Cell{}, fmt.Errorf("%s on %s: %w", m.aligner.Name(), pair.Name, err)
		}
		sim = align.DenseSim{M: matrix}
	}
	elapsed := time.Since(start)
	rep := metrics.EvaluateSim(sim, pair.Truth, 1, 10)
	return Cell{
		Method: m.aligner.Name(), Dataset: pair.Name,
		P1: rep.PrecisionAt[1], P10: rep.PrecisionAt[10], MRR: rep.MRR,
		Seconds: elapsed.Seconds(),
	}, nil
}

// renderTable renders cells grouped per dataset.
func renderTable(title string, cells []Cell) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", title)
	byDataset := map[string][]Cell{}
	var order []string
	for _, c := range cells {
		if _, seen := byDataset[c.Dataset]; !seen {
			order = append(order, c.Dataset)
		}
		byDataset[c.Dataset] = append(byDataset[c.Dataset], c)
	}
	for _, ds := range order {
		fmt.Fprintf(&b, "\n-- %s --\n", ds)
		fmt.Fprintf(&b, "%-8s %8s %8s %8s %9s\n", "method", "p@1", "p@10", "MRR", "time(s)")
		group := byDataset[ds]
		sort.SliceStable(group, func(i, j int) bool { return group[i].P1 > group[j].P1 })
		for _, c := range group {
			fmt.Fprintf(&b, "%-8s %8.4f %8.4f %8.4f %9.2f\n", c.Method, c.P1, c.P10, c.MRR, c.Seconds)
		}
	}
	return b.String()
}
