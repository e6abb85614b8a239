package datasets

import (
	"math/rand"

	"github.com/htc-align/htc/internal/dense"
	"github.com/htc-align/htc/internal/graph"
)

// PPI generates a protein–protein interaction style network with the
// duplication–divergence model (Vázquez et al. 2003), the standard
// generative model for interactomes: a new protein duplicates a random
// existing one, inherits each of its interactions with probability
// 1−delta, and gains a link to its parent with probability pParent.
// Protein-network alignment is the founding application of the network
// alignment literature (IsoRank, the GRAAL family), which the paper's
// introduction cites as a motivating domain; this generator backs the
// proteins example and cross-domain tests. Attributes are 16 noisy
// "sequence profile" channels inherited from the parent with mutation.
// n ≤ 0 selects 1000 proteins.
func PPI(n int, seed int64) *graph.Graph {
	if n <= 0 {
		n = 1000
	}
	// delta must stay above the model's densification threshold of 0.5
	// (retention < 0.5) or the edge count grows super-linearly.
	const (
		delta   = 0.62 // divergence: probability of losing an inherited edge
		pParent = 0.3
		attrDim = 16
	)
	rng := rand.New(rand.NewSource(seed))
	adj := make([][]int32, n)
	addEdge := func(u, v int) {
		adj[u] = append(adj[u], int32(v))
		adj[v] = append(adj[v], int32(u))
	}
	// Seed graph: a triangle, cut to its first n nodes when n < 3.
	tri := min(n, 3)
	for _, e := range [3][2]int{{0, 1}, {1, 2}, {0, 2}} {
		if e[1] < tri {
			addEdge(e[0], e[1])
		}
	}

	attrs := dense.New(n, attrDim)
	for j := 0; j < attrDim; j++ {
		for v := 0; v < tri; v++ {
			attrs.Set(v, j, rng.NormFloat64())
		}
	}

	for v := 3; v < n; v++ {
		parent := rng.Intn(v)
		// Inherit interactions with divergence.
		inherited := false
		for _, w := range adj[parent] {
			if rng.Float64() >= delta {
				addEdge(v, int(w))
				inherited = true
			}
		}
		if rng.Float64() < pParent || !inherited {
			addEdge(v, parent)
		}
		// Sequence profile: parent's with mutations.
		src := attrs.Row(parent)
		dst := attrs.Row(v)
		for j := range dst {
			dst[j] = src[j] + rng.NormFloat64()*0.3
		}
	}

	b := graph.NewBuilder(n)
	for u, nbrs := range adj {
		for _, w := range nbrs {
			if u < int(w) {
				b.AddEdge(u, int(w))
			}
		}
	}
	return b.Build().WithAttrs(attrs)
}
