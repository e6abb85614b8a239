// Package datasets synthesises stand-ins for the five network pairs of the
// paper's §V-A. The original datasets are crawled/Kaggle dumps that cannot
// be redistributed, so each generator reproduces the *statistical regime*
// that drives the corresponding experimental result — density, degree
// distribution, clustering, attribute dimensionality, partial ground
// truth, and (for Flickr–Myspace) deliberate consistency violation. The
// mapping from real dataset to generator is documented on each generator
// function.
//
// Every generator takes an explicit size (n ≤ 0 selects a laptop-scaled
// default) and a seed; equal inputs produce identical pairs.
package datasets

import (
	"fmt"
	"math/rand"

	"github.com/htc-align/htc/internal/dense"
	"github.com/htc-align/htc/internal/graph"
	"github.com/htc-align/htc/internal/ingest"
	"github.com/htc-align/htc/internal/metrics"
)

// Pair is a ready-to-align dataset: source and target networks plus the
// ground-truth anchor map (source node → target node, −1 when unknown).
type Pair struct {
	Name           string
	Source, Target *graph.Graph
	Truth          metrics.Truth
	// SourceIDs/TargetIDs carry the external-ID dictionaries of an
	// ingested real dataset (nil for the synthetic generators, whose
	// nodes are their indices).
	SourceIDs, TargetIDs *ingest.NodeMap
}

// Stats summarises one network as in the paper's Table I.
type Stats struct {
	Name   string
	Nodes  int
	Edges  int
	Attrs  int
	AvgDeg float64
}

// StatsOf computes the Table I row of a network.
func StatsOf(name string, g *graph.Graph) Stats {
	attrs := 0
	if g.Attrs() != nil {
		attrs = g.Attrs().Cols
	}
	return Stats{Name: name, Nodes: g.N(), Edges: g.NumEdges(), Attrs: attrs, AvgDeg: g.AvgDegree()}
}

// String renders the row.
func (s Stats) String() string {
	return fmt.Sprintf("%-16s edges=%-7d nodes=%-6d attrs=%-4d avgdeg=%.1f",
		s.Name, s.Edges, s.Nodes, s.Attrs, s.AvgDeg)
}

// MakeTarget derives a target network from a source by removing a fraction
// of edges uniformly at random and relabelling the nodes with a hidden
// permutation — the synthetic-dataset construction of §V-A (Econ and BN
// robustness tests). It returns the target and the ground truth.
func MakeTarget(src *graph.Graph, removeRatio float64, seed int64) (*graph.Graph, metrics.Truth) {
	if removeRatio < 0 || removeRatio >= 1 {
		panic(fmt.Sprintf("datasets: removeRatio %v outside [0,1)", removeRatio))
	}
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(src.N())
	for _, e := range src.Edges() {
		if rng.Float64() >= removeRatio {
			b.AddEdge(int(e[0]), int(e[1]))
		}
	}
	gt := b.Build()
	if src.Attrs() != nil {
		gt = gt.WithAttrs(src.Attrs().Clone())
	}
	perm := graph.Permutation(src.N(), rng)
	return graph.Relabel(gt, perm), metrics.FromPerm(perm)
}

// MakeTargetNoise generalises MakeTarget with both edge removal and edge
// *addition* noise: a removeRatio fraction of edges is dropped and
// addRatio·|E| spurious random edges are inserted before relabelling.
// Added edges violate topological consistency outright (there is no
// source counterpart), the harsher noise model used by the GAlign paper's
// augmentations and by our Flickr–Myspace simulator.
func MakeTargetNoise(src *graph.Graph, removeRatio, addRatio float64, seed int64) (*graph.Graph, metrics.Truth) {
	if removeRatio < 0 || removeRatio >= 1 || addRatio < 0 {
		panic(fmt.Sprintf("datasets: bad noise ratios remove=%v add=%v", removeRatio, addRatio))
	}
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(src.N())
	for _, e := range src.Edges() {
		if rng.Float64() >= removeRatio {
			b.AddEdge(int(e[0]), int(e[1]))
		}
	}
	toAdd := int(addRatio * float64(src.NumEdges()))
	for added := 0; added < toAdd && src.N() >= 2; {
		u, v := rng.Intn(src.N()), rng.Intn(src.N())
		if u != v && b.AddEdge(u, v) {
			added++
		}
	}
	gt := b.Build()
	if src.Attrs() != nil {
		gt = gt.WithAttrs(src.Attrs().Clone())
	}
	perm := graph.Permutation(src.N(), rng)
	return graph.Relabel(gt, perm), metrics.FromPerm(perm)
}

// zipfTags assigns each row a few one-hot tags drawn from a Zipf-skewed
// catalogue, the shape of real profile attributes (few popular interests,
// long tail).
func zipfTags(n, dims, minTags, maxTags int, rng *rand.Rand) *dense.Matrix {
	x := dense.New(n, dims)
	z := rand.NewZipf(rng, 1.4, 2, uint64(dims-1))
	for i := 0; i < n; i++ {
		tags := minTags + rng.Intn(maxTags-minTags+1)
		for t := 0; t < tags; t++ {
			x.Set(i, int(z.Uint64()), 1)
		}
	}
	return x
}

// noisyClone copies an attribute matrix and adds Gaussian noise — the
// imperfection of attribute consistency across two real networks.
func noisyClone(x *dense.Matrix, sigma float64, rng *rand.Rand) *dense.Matrix {
	c := x.Clone()
	if sigma > 0 {
		for i := range c.Data {
			c.Data[i] += rng.NormFloat64() * sigma
		}
	}
	return c
}

// subsetRows extracts the attribute rows of the kept source nodes, in keep
// order (which is the target's pre-permutation node order).
func subsetRows(x *dense.Matrix, keep []int) *dense.Matrix {
	out := dense.New(len(keep), x.Cols)
	for tgtID, srcID := range keep {
		copy(out.Row(tgtID), x.Row(srcID))
	}
	return out
}

// subsetInducedPair builds a partially-aligned pair: the target is the
// induced subgraph of src on `keep` selected nodes, with a further
// edgeDrop fraction of edges removed, then permuted. Nodes outside the
// subset have truth −1.
func subsetInducedPair(name string, src *graph.Graph, keep []int, edgeDrop float64, tgtAttrs *dense.Matrix, rng *rand.Rand) *Pair {
	inSubset := make([]int, src.N()) // src id → target id before permutation, or −1
	for i := range inSubset {
		inSubset[i] = -1
	}
	for tgtID, srcID := range keep {
		inSubset[srcID] = tgtID
	}
	b := graph.NewBuilder(len(keep))
	for _, e := range src.Edges() {
		u, v := inSubset[e[0]], inSubset[e[1]]
		if u >= 0 && v >= 0 && rng.Float64() >= edgeDrop {
			b.AddEdge(u, v)
		}
	}
	gt := b.Build()
	if tgtAttrs != nil {
		gt = gt.WithAttrs(tgtAttrs)
	}
	perm := graph.Permutation(len(keep), rng)
	gt = graph.Relabel(gt, perm)

	truth := make(metrics.Truth, src.N())
	for s := range truth {
		if inSubset[s] >= 0 {
			truth[s] = perm[inSubset[s]]
		} else {
			truth[s] = -1
		}
	}
	return &Pair{Name: name, Source: src, Target: gt, Truth: truth}
}
