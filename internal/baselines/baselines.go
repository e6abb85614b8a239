// Package baselines re-implements the six comparison methods of the
// paper's §V-A: IsoRank, FINAL, REGAL (xNetMF), PALE, CENALP and GAlign.
//
// Each implementation states its fidelity level in its doc comment. The
// originals range from a fixed-point iteration (IsoRank) to a full
// research system (CENALP); where the original depends on machinery
// outside this repository's scope (skip-gram training, cross-graph random
// walks), the closest equivalent built from this repo's substrates is used
// and the substitution is documented in that method's doc comment.
package baselines

import (
	"github.com/htc-align/htc/internal/dense"
	"github.com/htc-align/htc/internal/graph"
	"github.com/htc-align/htc/internal/sparse"
)

// Anchor is one known source→target correspondence. Supervised baselines
// receive 10% of the ground truth as anchors, matching the paper's
// experimental protocol.
type Anchor struct {
	S, T int
}

// Aligner is the common interface of every alignment method in this
// repository, HTC included (via the root package's adapter).
type Aligner interface {
	// Name returns the method's display name as used in the paper's
	// tables.
	Name() string
	// Align computes an ns×nt alignment score matrix. seeds may be empty;
	// unsupervised methods ignore them.
	Align(gs, gt *graph.Graph, seeds []Anchor) (*dense.Matrix, error)
}

// attrSimilarity returns the cosine-similarity matrix between node
// attributes of the two graphs, or nil when either side lacks attributes.
// Several baselines use it as a prior or compatibility term.
func attrSimilarity(gs, gt *graph.Graph) *dense.Matrix {
	if gs.Attrs() == nil || gt.Attrs() == nil {
		return nil
	}
	if gs.Attrs().Cols != gt.Attrs().Cols {
		return nil
	}
	a, b := gs.Attrs().Clone(), gt.Attrs().Clone()
	a.NormalizeRows()
	b.NormalizeRows()
	return dense.MulBT(a, b)
}

// seedPrior builds the prior matrix H of the supervised fixed-point
// methods: seed entries carry weight 1, everything else a uniform mass so
// the iteration can spread scores beyond the seeds. When no seeds exist an
// attribute prior (or uniform prior) is used instead.
func seedPrior(ns, nt int, seeds []Anchor, attrs *dense.Matrix) *dense.Matrix {
	h := dense.New(ns, nt)
	if attrs != nil {
		h.CopyFrom(attrs)
		// Cosine similarities can be negative; shift into [0, 1] so the
		// prior stays a non-negative mass distribution.
		h.Apply(func(v float64) float64 { return (v + 1) / 2 })
	} else {
		h.Fill(1)
	}
	norm := h.FrobNorm()
	if norm > 0 {
		h.Scale(1 / norm)
	}
	if len(seeds) > 0 {
		boost := h.MaxAbs()
		if boost == 0 {
			boost = 1
		}
		for _, s := range seeds {
			if s.S >= 0 && s.S < ns && s.T >= 0 && s.T < nt {
				h.Set(s.S, s.T, 10*boost)
			}
		}
		h.Scale(1 / h.FrobNorm())
	}
	return h
}

// rowStochastic returns D⁻¹·A for a graph, the row-normalised transition
// matrix shared by IsoRank and FINAL.
func rowStochastic(g *graph.Graph) *sparse.CSR {
	inv := make([]float64, g.N())
	for i, d := range g.DegreeVector() {
		if d > 0 {
			inv[i] = 1 / d
		}
	}
	return g.Adjacency().DiagScale(inv, nil)
}
