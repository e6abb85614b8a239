package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/htc-align/htc/internal/core"
	"github.com/htc-align/htc/internal/datasets"
	"github.com/htc-align/htc/internal/metrics"
)

// Custom runs the full variant roster over one externally loaded pair —
// the htc-experiments face of the real-data ingestion API (-source /
// -target / -format / -truth). The pair is Prepared once and every
// variant aligns over the shared artifacts, exactly like the Table III
// sweep; accuracy columns are reported when the pair carries ground
// truth and omitted otherwise.
func Custom(pair *datasets.Pair, o Options) ([]Cell, string, error) {
	o = o.withDefaults()
	prep, err := core.Prepare(pair.Source, pair.Target)
	if err != nil {
		return nil, "", fmt.Errorf("preparing %s: %w", pair.Name, err)
	}
	hasTruth := pair.Truth.NumAnchors() > 0
	var cells []Cell
	for _, v := range ablations {
		cfg := o.htcConfig()
		cfg.Variant = v.variant
		cfg.Binary = v.binary
		start := time.Now()
		res, err := prep.Align(cfg)
		if err != nil {
			return nil, "", fmt.Errorf("%s on %s: %w", v.name, pair.Name, err)
		}
		cell := Cell{Method: v.name, Dataset: pair.Name, Seconds: time.Since(start).Seconds()}
		if hasTruth {
			rep := metrics.EvaluateSim(res.Sim, pair.Truth, 1, 10)
			cell.P1, cell.P10, cell.MRR = rep.PrecisionAt[1], rep.PrecisionAt[10], rep.MRR
			if res.PreRefineSim != nil {
				pre := metrics.EvaluateSim(res.PreRefineSim, pair.Truth, 1)
				cell.P1Unrefined = pre.PrecisionAt[1]
				cell.Refined = true
			}
		}
		cells = append(cells, cell)
	}

	refined := hasTruth && o.Config.RefineIters > 0
	var b strings.Builder
	fmt.Fprintf(&b, "== custom pair %s: source %v, target %v, %d anchors ==\n",
		pair.Name, pair.Source, pair.Target, pair.Truth.NumAnchors())
	if refined {
		fmt.Fprintf(&b, "%-8s %8s %8s %8s %8s %9s\n", "variant", "p@1", "p@1 raw", "p@10", "MRR", "seconds")
		for _, c := range cells {
			fmt.Fprintf(&b, "%-8s %8.4f %8.4f %8.4f %8.4f %9.2f\n", c.Method, c.P1, c.P1Unrefined, c.P10, c.MRR, c.Seconds)
		}
	} else if hasTruth {
		fmt.Fprintf(&b, "%-8s %8s %8s %8s %9s\n", "variant", "p@1", "p@10", "MRR", "seconds")
		for _, c := range cells {
			fmt.Fprintf(&b, "%-8s %8.4f %8.4f %8.4f %9.2f\n", c.Method, c.P1, c.P10, c.MRR, c.Seconds)
		}
	} else {
		b.WriteString("(no ground truth loaded: pass -truth to report accuracy)\n")
		fmt.Fprintf(&b, "%-8s %9s\n", "variant", "seconds")
		for _, c := range cells {
			fmt.Fprintf(&b, "%-8s %9.2f\n", c.Method, c.Seconds)
		}
	}
	return cells, b.String(), nil
}
