package experiments

import (
	"fmt"
	"math"
	"strings"

	"github.com/htc-align/htc/internal/core"
	"github.com/htc-align/htc/internal/datasets"
	"github.com/htc-align/htc/internal/dense"
	"github.com/htc-align/htc/internal/tsne"
)

// TSNEResult holds one orbit's visualisation data for the paper's Fig. 11:
// 2-D t-SNE layouts of sampled anchor embeddings before and after
// alignment, plus a quantitative overlap proxy.
type TSNEResult struct {
	Orbit int
	// Before and After are (2·Sample)×2 coordinate matrices: rows
	// 0..Sample−1 are source anchors, rows Sample..2·Sample−1 their
	// target counterparts, in the same anchor order.
	Before, After *dense.Matrix
	// Sample is the number of anchor pairs visualised.
	Sample int
	// MRRBefore and MRRAfter quantify the figure's visual overlap as a
	// retrieval problem: for every source anchor embedding, the
	// reciprocal rank of its true counterpart among all sampled target
	// anchor embeddings (by Euclidean distance), averaged. Random
	// embeddings score ≈ ln(s)/s; perfectly overlapping anchor clouds
	// score 1.
	MRRBefore, MRRAfter float64
}

// Fig11 regenerates the visualisation analysis on the Douban pair: anchor
// embeddings per orbit before alignment (encoder almost untrained) and
// after the full HTC pipeline.
func Fig11(o Options) ([]TSNEResult, string, error) {
	o = o.withDefaults()
	pair := datasets.Douban(o.size(450), o.Seed+1)

	// Both runs share one prepared pair: the trained (Full) and untrained
	// (HighOrder) passes use the same orbit counts and Laplacians.
	afterCfg := o.htcConfig()
	afterCfg.KeepEmbeddings = true
	prep, err := core.Prepare(pair.Source, pair.Target)
	if err != nil {
		return nil, "", fmt.Errorf("fig11 prepare: %w", err)
	}
	after, err := prep.Align(afterCfg)
	if err != nil {
		return nil, "", fmt.Errorf("fig11 trained run: %w", err)
	}
	beforeCfg := afterCfg
	beforeCfg.Epochs = 1 // essentially the random initialisation
	beforeCfg.Variant = core.HighOrder
	before, err := prep.Align(beforeCfg)
	if err != nil {
		return nil, "", fmt.Errorf("fig11 untrained run: %w", err)
	}

	// Sample up to 150 anchors, as in the paper.
	var anchors [][2]int
	for s, t := range pair.Truth {
		if t >= 0 {
			anchors = append(anchors, [2]int{s, t})
		}
	}
	if len(anchors) > 150 {
		anchors = anchors[:150]
	}

	orbits := []int{0, 1, 3, 5, 7}
	var out []TSNEResult
	for _, k := range orbits {
		if k >= len(after.SourceEmbeddings) {
			continue
		}
		res := TSNEResult{Orbit: k, Sample: len(anchors)}
		res.Before, res.MRRBefore = layout(before.SourceEmbeddings[k], before.TargetEmbeddings[k], anchors, o.Seed)
		res.After, res.MRRAfter = layout(after.SourceEmbeddings[k], after.TargetEmbeddings[k], anchors, o.Seed)
		out = append(out, res)
	}

	var b strings.Builder
	b.WriteString("== Fig 11: anchor embedding overlap (retrieval MRR within sample; higher = more aligned) ==\n")
	fmt.Fprintf(&b, "%-8s %12s %12s\n", "orbit", "before", "after")
	for _, r := range out {
		fmt.Fprintf(&b, "%-8d %12.4f %12.4f\n", r.Orbit, r.MRRBefore, r.MRRAfter)
	}
	return out, b.String(), nil
}

// layout stacks the sampled anchor embeddings of both graphs, computes the
// 2-D t-SNE coordinates, and measures the cross-graph retrieval MRR: for
// every source anchor, the reciprocal rank of its true target among all
// sampled target anchors by embedding distance.
func layout(hs, ht *dense.Matrix, anchors [][2]int, seed int64) (*dense.Matrix, float64) {
	s := len(anchors)
	d := hs.Cols
	stack := dense.New(2*s, d)
	for i, a := range anchors {
		copy(stack.Row(i), hs.Row(a[0]))
		copy(stack.Row(s+i), ht.Row(a[1]))
	}
	// Row-normalise so distances compare across training stages.
	stack.NormalizeRows()

	var mrr float64
	for i := 0; i < s; i++ {
		trueDist := euclid(stack.Row(i), stack.Row(s+i))
		rank := 1
		for j := 0; j < s; j++ {
			if j != i && euclid(stack.Row(i), stack.Row(s+j)) < trueDist {
				rank++
			}
		}
		mrr += 1 / float64(rank)
	}
	mrr /= float64(s)

	coords := tsne.Embed(stack, tsne.Config{Iters: 250, Perplexity: 20, Seed: seed})
	return coords, mrr
}

func euclid(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
