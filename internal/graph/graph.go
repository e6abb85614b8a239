// Package graph provides the undirected attributed graph substrate of the
// HTC reproduction. Graphs are immutable after construction: build them
// with a Builder (which deduplicates edges and rejects self-loops), then
// query sorted adjacency, degrees and attributes from any goroutine.
package graph

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

	"github.com/htc-align/htc/internal/dense"
	"github.com/htc-align/htc/internal/sparse"
)

// Shared edge-validation vocabulary. Every ingestion surface — the
// Builder, the text reader, the server's GraphSpec and the
// internal/ingest format readers — classifies a bad edge with these
// sentinels, so callers can errors.Is uniformly across the stack.
var (
	// ErrEdgeRange marks an edge endpoint outside [0, n).
	ErrEdgeRange = errors.New("graph: edge endpoint out of range")
	// ErrSelfLoop marks an edge joining a node to itself.
	ErrSelfLoop = errors.New("graph: self-loop edge")
	// ErrDupEdge marks an edge that was already recorded.
	ErrDupEdge = errors.New("graph: duplicate edge")
)

// Graph is an immutable undirected graph with optional node attributes.
type Graph struct {
	n     int
	adj   [][]int32 // sorted neighbour lists
	edges [][2]int32
	attrs *dense.Matrix // nil when the graph carries no attributes
}

// Builder accumulates edges for a graph with a fixed node count.
type Builder struct {
	n     int
	seen  map[uint64]struct{}
	edges [][2]int32
}

// NewBuilder returns a builder for a graph on n nodes (ids 0..n−1).
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	return &Builder{n: n, seen: make(map[uint64]struct{})}
}

func edgeKey(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(uint32(v))
}

// AddEdge records the undirected edge (u, v). Self-loops and duplicates are
// ignored; the return value reports whether a new edge was added.
func (b *Builder) AddEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= b.n || v >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	if u == v {
		return false
	}
	key := edgeKey(int32(u), int32(v))
	if _, dup := b.seen[key]; dup {
		return false
	}
	b.seen[key] = struct{}{}
	if u > v {
		u, v = v, u
	}
	b.edges = append(b.edges, [2]int32{int32(u), int32(v)})
	return true
}

// Add records the undirected edge (u, v) like AddEdge, but validates
// instead of panicking: out-of-range endpoints return an error wrapping
// ErrEdgeRange. Self-loops and duplicate edges are skipped silently —
// the uniform tolerant-ingestion policy shared by every reader (real
// edge lists are full of both). Strict callers use AddStrict.
func (b *Builder) Add(u, v int) error {
	if err := b.checkRange(u, v); err != nil {
		return err
	}
	b.AddEdge(u, v)
	return nil
}

// AddStrict records the undirected edge (u, v), rejecting out-of-range
// endpoints, self-loops and duplicates with the shared sentinel errors.
func (b *Builder) AddStrict(u, v int) error {
	if err := b.checkRange(u, v); err != nil {
		return err
	}
	if u == v {
		return fmt.Errorf("edge (%d,%d): %w", u, v, ErrSelfLoop)
	}
	if b.HasEdge(u, v) {
		return fmt.Errorf("edge (%d,%d): %w", u, v, ErrDupEdge)
	}
	b.AddEdge(u, v)
	return nil
}

func (b *Builder) checkRange(u, v int) error {
	if u < 0 || v < 0 || u >= b.n || v >= b.n {
		return fmt.Errorf("edge (%d,%d) outside [0,%d): %w", u, v, b.n, ErrEdgeRange)
	}
	return nil
}

// HasEdge reports whether (u, v) has been added to the builder.
func (b *Builder) HasEdge(u, v int) bool {
	_, ok := b.seen[edgeKey(int32(u), int32(v))]
	return ok
}

// NumEdges returns the number of distinct edges added so far.
func (b *Builder) NumEdges() int { return len(b.edges) }

// Build finalises the graph. The builder can keep accepting edges and
// build again; each Build returns an independent graph.
func (b *Builder) Build() *Graph {
	g := &Graph{n: b.n, adj: make([][]int32, b.n)}
	deg := make([]int, b.n)
	for _, e := range b.edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	for i := range g.adj {
		g.adj[i] = make([]int32, 0, deg[i])
	}
	g.edges = make([][2]int32, len(b.edges))
	copy(g.edges, b.edges)
	slices.SortFunc(g.edges, compareEdges)
	for _, e := range g.edges {
		g.adj[e[0]] = append(g.adj[e[0]], e[1])
		g.adj[e[1]] = append(g.adj[e[1]], e[0])
	}
	for i := range g.adj {
		slices.Sort(g.adj[i])
	}
	return g
}

// compareEdges orders edges lexicographically.
func compareEdges(a, b [2]int32) int {
	if c := cmp.Compare(a[0], b[0]); c != 0 {
		return c
	}
	return cmp.Compare(a[1], b[1])
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Degree returns the degree of node i.
func (g *Graph) Degree(i int) int { return len(g.adj[i]) }

// Neighbors returns the sorted neighbour list of node i. The slice is
// shared with the graph and must not be modified.
func (g *Graph) Neighbors(i int) []int32 { return g.adj[i] }

// Edges returns all edges as (u, v) pairs with u < v, sorted
// lexicographically. The slice is shared with the graph and must not be
// modified.
func (g *Graph) Edges() [][2]int32 { return g.edges }

// HasEdge reports whether nodes u and v are adjacent, by binary search in
// the smaller adjacency list.
func (g *Graph) HasEdge(u, v int) bool {
	if u == v {
		return false
	}
	a := g.adj[u]
	if len(g.adj[v]) < len(a) {
		a, v = g.adj[v], u
	}
	idx := sort.Search(len(a), func(k int) bool { return a[k] >= int32(v) })
	return idx < len(a) && a[idx] == int32(v)
}

// Attrs returns the node attribute matrix (n×d) or nil if the graph has no
// attributes. The matrix is shared and must not be modified.
func (g *Graph) Attrs() *dense.Matrix { return g.attrs }

// WithAttrs returns a copy of g carrying the given attribute matrix, which
// must have exactly N rows. The adjacency structure is shared with g.
func (g *Graph) WithAttrs(attrs *dense.Matrix) *Graph {
	if attrs != nil && attrs.Rows != g.n {
		panic(fmt.Sprintf("graph: attrs have %d rows, want %d", attrs.Rows, g.n))
	}
	cp := *g
	cp.attrs = attrs
	return &cp
}

// AvgDegree returns the mean degree 2·|E|/n, or 0 for an empty graph.
func (g *Graph) AvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return 2 * float64(len(g.edges)) / float64(g.n)
}

// MaxDegree returns the largest degree in the graph.
func (g *Graph) MaxDegree() int {
	mx := 0
	for _, a := range g.adj {
		if len(a) > mx {
			mx = len(a)
		}
	}
	return mx
}

// Adjacency returns the binary adjacency matrix of g in CSR form.
func (g *Graph) Adjacency() *sparse.CSR {
	entries := make([]sparse.Entry, 0, 2*len(g.edges))
	for _, e := range g.edges {
		entries = append(entries,
			sparse.Entry{Row: e[0], Col: e[1], Val: 1},
			sparse.Entry{Row: e[1], Col: e[0], Val: 1})
	}
	return sparse.FromEntries(g.n, g.n, entries)
}

// DegreeVector returns every node's degree as float64s, convenient for
// normalisation matrices.
func (g *Graph) DegreeVector() []float64 {
	out := make([]float64, g.n)
	for i, a := range g.adj {
		out[i] = float64(len(a))
	}
	return out
}

// EdgeIndex returns a map from the canonical (u<v) edge key to the edge's
// position in Edges(). Orbit counting uses it to address per-edge count
// rows.
func (g *Graph) EdgeIndex() map[uint64]int {
	idx := make(map[uint64]int, len(g.edges))
	for i, e := range g.edges {
		idx[edgeKey(e[0], e[1])] = i
	}
	return idx
}

// EdgeKey returns the canonical map key for the undirected edge (u, v),
// matching EdgeIndex.
func EdgeKey(u, v int) uint64 { return edgeKey(int32(u), int32(v)) }

// String summarises the graph.
func (g *Graph) String() string {
	d := 0
	if g.attrs != nil {
		d = g.attrs.Cols
	}
	return fmt.Sprintf("graph.Graph(n=%d, e=%d, attrs=%d)", g.n, len(g.edges), d)
}
