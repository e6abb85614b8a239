package datasets

import (
	"math/rand"

	"github.com/htc-align/htc/internal/graph"
)

// Douban simulates the Douban Online–Offline pair: a sparse
// preferential-attachment social network (avg degree ≈ 4 online) whose
// offline counterpart is the induced subgraph on roughly 30% of the users
// — biased towards well-connected ones, since offline activity correlates
// with online centrality — further thinned to offline sparsity (avg degree
// ≈ 2.7 in Table I). Ground truth is partial: only users present in both
// networks are anchored, and the two networks have different sizes, which
// exercises the rectangular-alignment code path. Attributes are 64
// Zipf-popular interest tags (scaled down from the paper's 538 to keep the
// first GCN layer laptop-sized). n ≤ 0 selects
// the default of 900 online users.
func Douban(n int, seed int64) *Pair {
	if n <= 0 {
		n = 900
	}
	rng := rand.New(rand.NewSource(seed))
	src := graph.PreferentialAttachment(n, 2, rng)
	attrs := zipfTags(n, 64, 3, 8, rng)
	src = src.WithAttrs(attrs)

	// Offline membership: sample ~30% of users, degree-biased. The mild
	// 10% extra edge drop lands the offline average degree near Table
	// I's 2.7 (offline ties are a subset of online ones).
	keepN := n * 3 / 10
	keep := degreeBiasedSample(src, keepN, rng)
	tgtAttrs := subsetRows(noisyClone(attrs, 0.02, rng), keep)
	return subsetInducedPair("Douban On/Off", src, keep, 0.10, tgtAttrs, rng)
}

// FlickrMyspace simulates the Flickr–Myspace pair, the hardest benchmark
// in the paper: extremely sparse topology (avg degree ≈ 2), only 3
// attributes, and — crucially — ground truth that *violates* the usual
// consistency assumptions. The generator reproduces that regime: the
// target keeps the source's nodes but drops 35% of edges AND adds the same
// number of random edges (structure-breaking rewiring), attributes carry
// heavy noise, and only ~4% of nodes have known anchors, mirroring the 267
// ground-truth links among 6714 Flickr users. All methods are expected to
// score near zero here; the experiment checks relative ordering, not
// absolute quality. n ≤ 0 selects the default of 1000 nodes.
func FlickrMyspace(n int, seed int64) *Pair {
	if n <= 0 {
		n = 1000
	}
	rng := rand.New(rand.NewSource(seed))
	src := graph.PreferentialAttachment(n, 1, rng)
	// A touch of extra randomness lifts avg degree to ≈ 2.2.
	b := graph.NewBuilder(n)
	for _, e := range src.Edges() {
		b.AddEdge(int(e[0]), int(e[1]))
	}
	for i := 0; i < n/10; i++ {
		b.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	src = b.Build()
	attrs := zipfTags(n, 3, 1, 2, rng)
	src = src.WithAttrs(attrs)

	// Target: same user base plus 25% extra users (Myspace is larger),
	// rewired structure, heavily noised attributes.
	nt := n * 5 / 4
	tb := graph.NewBuilder(nt)
	removed := 0
	for _, e := range src.Edges() {
		if rng.Float64() < 0.25 {
			removed++
			continue
		}
		tb.AddEdge(int(e[0]), int(e[1]))
	}
	for i := 0; i < removed; i++ { // consistency-violating rewiring
		tb.AddEdge(rng.Intn(nt), rng.Intn(nt))
	}
	for v := n; v < nt; v++ { // extra Myspace-only users
		tb.AddEdge(v, rng.Intn(v))
	}
	gt := tb.Build()

	tgtAttrs := noisyClone(attrs, 0.45, rng)
	full := zipfTags(nt, 3, 1, 2, rng)
	for i := 0; i < n; i++ {
		copy(full.Row(i), tgtAttrs.Row(i))
	}
	gt = gt.WithAttrs(full)

	perm := graph.Permutation(nt, rng)
	gt = graph.Relabel(gt, perm)

	// Known ground truth: a 4% random subset of the shared users.
	truth := make([]int, n)
	for i := range truth {
		truth[i] = -1
	}
	for _, s := range rng.Perm(n)[:n*4/100] {
		truth[s] = perm[s]
	}
	return &Pair{Name: "Flickr&Myspace", Source: src, Target: gt, Truth: truth}
}

// degreeBiasedSample draws k distinct nodes with probability proportional
// to degree+1.
func degreeBiasedSample(g *graph.Graph, k int, rng *rand.Rand) []int {
	var pool []int32
	for v := 0; v < g.N(); v++ {
		for i := 0; i <= g.Degree(v); i++ {
			pool = append(pool, int32(v))
		}
	}
	chosen := make(map[int]bool, k)
	out := make([]int, 0, k)
	for len(out) < k && len(chosen) < g.N() {
		v := int(pool[rng.Intn(len(pool))])
		if !chosen[v] {
			chosen[v] = true
			out = append(out, v)
		}
	}
	return out
}
