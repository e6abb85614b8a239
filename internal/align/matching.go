package align

import (
	"cmp"
	"math"
	"slices"

	"github.com/htc-align/htc/internal/dense"
)

// GreedyMatch extracts a one-to-one matching from an alignment matrix by
// repeatedly taking the highest-scoring unmatched pair. It returns
// match[s] = t (or −1 for unmatched source nodes). The result is the
// standard greedy 1/2-approximation of the maximum-weight matching and is
// the cheap way to turn HTC's score matrix into a hard assignment.
// Ties resolve deterministically: higher score first, then lower source,
// then lower target.
func GreedyMatch(m *dense.Matrix) []int { return greedyDense(m) }

// GreedyMatchSim is the backend-generic greedy matcher: the dense path
// sorts packed cell indices (8 bytes per pair instead of a 24-byte entry
// struct), the top-k path sorts only the O(n·k) candidate pairs. Both use
// the same (score desc, source asc, target asc) order, so with k ≥ nt the
// two backends produce identical matchings.
func GreedyMatchSim(s Sim) []int {
	if d, ok := s.(DenseSim); ok {
		return greedyDense(d.M)
	}
	return greedyCandidates(s)
}

// greedyAssign is the shared greedy-assignment core: walk n pairs in
// descending-preference order (pair(i) yields the i-th best) and take
// every pair whose source and target are both still free. Exactly one
// copy of the skip/assign/termination logic exists, so the two backends'
// matchings cannot drift apart.
func greedyAssign(rows, cols, n int, pair func(i int) (s, t int)) []int {
	match := make([]int, rows)
	for i := range match {
		match[i] = -1
	}
	usedT := make([]bool, cols)
	remaining := rows
	if cols < remaining {
		remaining = cols
	}
	for i := 0; i < n && remaining > 0; i++ {
		s, t := pair(i)
		if match[s] >= 0 || usedT[t] {
			continue
		}
		match[s] = t
		usedT[t] = true
		remaining--
	}
	return match
}

// greedyDense is the allocation-lean dense greedy matcher: one packed
// int64 key (i·cols + j) per cell, sorted by score with ties broken by
// the key itself (which is exactly (i asc, j asc)).
func greedyDense(m *dense.Matrix) []int {
	if m.Rows == 0 || m.Cols == 0 {
		return greedyAssign(m.Rows, m.Cols, 0, nil)
	}
	keys := make([]int64, m.Rows*m.Cols)
	for i := range keys {
		keys[i] = int64(i)
	}
	data := m.Data
	slices.SortFunc(keys, func(a, b int64) int {
		switch {
		case data[a] > data[b]:
			return -1
		case data[a] < data[b]:
			return 1
		}
		return cmp.Compare(a, b)
	})
	cols := int64(m.Cols)
	return greedyAssign(m.Rows, m.Cols, len(keys), func(i int) (int, int) {
		return int(keys[i] / cols), int(keys[i] % cols)
	})
}

// greedyCandidates runs the greedy matcher over a sparse representation:
// only represented pairs can match, so the sort handles O(n·k) entries
// instead of O(n²). Source rows whose candidates are all taken stay
// unmatched (−1), the honest answer under a candidate restriction.
func greedyCandidates(s Sim) []int {
	rows, cols := s.Dims()
	type entry struct {
		s, t  int32
		score float64
	}
	var entries []entry
	for i := 0; i < rows; i++ {
		s.Scan(i, func(j int, score float64) {
			entries = append(entries, entry{int32(i), int32(j), score})
		})
	}
	slices.SortFunc(entries, func(a, b entry) int {
		switch {
		case a.score > b.score:
			return -1
		case a.score < b.score:
			return 1
		case a.s != b.s:
			return int(a.s) - int(b.s)
		}
		return int(a.t) - int(b.t)
	})
	return greedyAssign(rows, cols, len(entries), func(i int) (int, int) {
		return int(entries[i].s), int(entries[i].t)
	})
}

// HungarianMatch computes a maximum-weight one-to-one assignment from an
// alignment matrix with the Hungarian algorithm (Kuhn–Munkres, O(n³) in
// the Jonker–Volgenant potentials formulation). Rectangular matrices are
// handled by implicit zero padding; unmatched source nodes (when
// rows > cols) get −1. Scores may be negative.
func HungarianMatch(m *dense.Matrix) []int {
	rows, cols := m.Rows, m.Cols
	if rows == 0 || cols == 0 {
		out := make([]int, rows)
		for i := range out {
			out[i] = -1
		}
		return out
	}
	// The classic JV formulation solves min-cost on a rows ≤ cols matrix;
	// negate for max-weight and transpose when rows > cols.
	transposed := rows > cols
	a := m
	if transposed {
		a = m.T()
		rows, cols = cols, rows
	}

	// 1-indexed potentials u (rows), v (cols) and column matches p.
	u := make([]float64, rows+1)
	v := make([]float64, cols+1)
	p := make([]int, cols+1)   // p[j] = row matched to column j (0 = none)
	way := make([]int, cols+1) // way[j] = previous column on the augmenting path
	for i := 1; i <= rows; i++ {
		p[0] = i
		j0 := 0
		minv := make([]float64, cols+1)
		used := make([]bool, cols+1)
		for j := range minv {
			minv[j] = math.Inf(1)
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := math.Inf(1)
			j1 := 0
			for j := 1; j <= cols; j++ {
				if used[j] {
					continue
				}
				// Costs are negated scores.
				cur := -a.At(i0-1, j-1) - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= cols; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}

	if !transposed {
		out := make([]int, rows)
		for i := range out {
			out[i] = -1
		}
		for j := 1; j <= cols; j++ {
			if p[j] != 0 {
				out[p[j]-1] = j - 1
			}
		}
		return out
	}
	// The transposed solve matched every target column; invert it.
	out := make([]int, m.Rows)
	for i := range out {
		out[i] = -1
	}
	for j := 1; j <= cols; j++ {
		if p[j] != 0 {
			// In transposed space: row p[j] is a target node, column j a
			// source node.
			out[j-1] = p[j] - 1
		}
	}
	return out
}
