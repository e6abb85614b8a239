// Package align implements HTC's alignment machinery on top of node
// embeddings: the Pearson similarity matrix (Eq. 9), hubness degrees and
// the locally isolated similarity index LISI (Eq. 10–11), mutual-nearest
// trusted pairs (Eq. 12), the trusted-pair fine-tuning loop of Algorithm 2
// (Eq. 13–14) and the posterior importance integration of Eq. 15.
//
// The top-k and ANN backends draw candidates from one internal/ann index
// per direction: with zero parameters it is the exact blocked scan, with
// positive bits the LSH generator. Either keeps each node's k best
// counterparts through internal/topk: a larger score first, equal scores
// to the lower index, the order SortRowDesc sorts by.
package align

import (
	"fmt"

	"github.com/htc-align/htc/internal/dense"
	"github.com/htc-align/htc/internal/par"
	"github.com/htc-align/htc/internal/topk"
)

// simScratch holds the similarity working set of one fine-tuning loop: the
// centered embedding copies, the ns×nt correlation and LISI matrices, the
// nt×ns transposed view and each worker's hubness selector. Algorithm 2
// recomputes all of them every iteration; keeping them in one reusable
// bundle turns ~6 large allocations per iteration into zero after the
// first.
type simScratch struct {
	a, b   *dense.Matrix // centered + row-normalised embedding copies
	corr   *dense.Matrix // ns×nt Pearson similarity
	corrT  *dense.Matrix // nt×ns transposed similarity (column-scan buffer)
	lisi   *dense.Matrix // ns×nt LISI
	dt, ds []float64     // hubness degrees
	top    []topScratch  // per-worker topMean scratch
}

func ensureVec(v []float64, n int) []float64 {
	if len(v) == n {
		return v
	}
	return make([]float64, n)
}

// corrInto computes the Pearson correlation matrix between the rows of hs
// (ns×d) and ht (nt×d) into the scratch's corr buffer: entry (i, j) is
// corr(hs_i, ht_j) per Eq. 9. Constant (zero-variance) embeddings
// correlate 0 with everything. workers bounds the kernel fan-out (≤ 0 =
// GOMAXPROCS).
func (s *simScratch) corrInto(hs, ht *dense.Matrix, workers int) *dense.Matrix {
	if hs.Cols != ht.Cols {
		panic(fmt.Sprintf("align: embedding dims differ: %d vs %d", hs.Cols, ht.Cols))
	}
	s.a = dense.Ensure(s.a, hs.Rows, hs.Cols)
	s.b = dense.Ensure(s.b, ht.Rows, ht.Cols)
	dense.CenterNormalizeRowsInto(s.a, hs)
	dense.CenterNormalizeRowsInto(s.b, ht)
	s.corr = dense.Ensure(s.corr, hs.Rows, ht.Rows)
	dense.MulBTInto(s.corr, s.a, s.b, workers)
	return s.corr
}

// topMean returns the mean of the m largest values in xs. When xs has
// fewer than m entries the mean of all of them is returned; m ≤ 0 yields
// 0. The m best are kept by topk.Select, the aligner's one top-k heap, and
// summed in its best-first output order: float addition is
// order-sensitive, and the top-k backend's candidate scores arrive in that
// order, so a shared summation order is what makes the two backends
// bit-identical (equal values commute, so ties cannot perturb the sum).
func topMean(xs []float64, m int, ts *topScratch) float64 {
	if m <= 0 || len(xs) == 0 {
		return 0
	}
	m = min(m, len(xs))
	if len(ts.idx) != m {
		ts.idx, ts.score = make([]int32, m), make([]float64, m)
	}
	topk.Select(&ts.sel, ts.idx, ts.score, nil, xs)
	var s float64
	for _, v := range ts.score {
		s += v
	}
	return s / float64(m)
}

// topScratch is one worker's topMean working set: the selector's heap
// and its output buffers.
type topScratch struct {
	sel   topk.Selector
	idx   []int32
	score []float64
}

// hubness fills the scratch's dt/ds vectors with the hubness degrees of
// Eq. 10: Dt (per source node: mean similarity to its m nearest target
// neighbours) and Ds (per target node, symmetric). Ds needs the columns
// of corr, which a strided gather would read one cache line per entry;
// the matrix is transposed once with the cache-blocked TransposeInto
// instead, so Ds is a sequential row scan like Dt. Each row is one
// worker's alone, so every degree has the same bits for every worker
// count.
func (s *simScratch) hubness(corr *dense.Matrix, m, workers int) (dt, ds []float64) {
	s.dt = ensureVec(s.dt, corr.Rows)
	s.ds = ensureVec(s.ds, corr.Cols)
	s.corrT = dense.Ensure(s.corrT, corr.Cols, corr.Rows)
	dense.TransposeInto(s.corrT, corr)
	if w := par.Resolve(workers); len(s.top) < w {
		s.top = make([]topScratch, w)
	}
	s.degrees(s.dt, corr, m, workers)
	s.degrees(s.ds, s.corrT, m, workers)
	return s.dt, s.ds
}

// degrees sets d[i] to the mean of the m largest entries of row i of c,
// through the worker's own topScratch, kept across calls.
func (s *simScratch) degrees(d []float64, c *dense.Matrix, m, workers int) {
	par.Sharded(workers, c.Rows, func(w, i int) {
		d[i] = topMean(c.Row(i), m, &s.top[w])
	})
}

// lisiInto computes the locally isolated similarity index of Eq. 11,
// LISI(i,j) = 2·corr(i,j) − Dt(i) − Ds(j), into the scratch's lisi
// buffer, reusing the hubness vectors and the transposed similarity. High
// values mark pairs that are mutually similar yet locally isolated, which
// suppresses hub nodes.
func (s *simScratch) lisiInto(corr *dense.Matrix, m, workers int) *dense.Matrix {
	dt, ds := s.hubness(corr, m, workers)
	s.lisi = dense.Ensure(s.lisi, corr.Rows, corr.Cols)
	out := s.lisi
	par.For(workers, corr.Rows, corr.Cols, func(start, end int) {
		for i := start; i < end; i++ {
			src := corr.Row(i)
			dst := out.Row(i)
			di := dt[i]
			for j, v := range src {
				dst[j] = 2*v - di - ds[j]
			}
		}
	})
	return out
}

// TrustedPairs returns the mutual-nearest-neighbour pairs of an alignment
// matrix (Eq. 12): (i, j) is trusted iff j = argmax_j M(i,·) and
// i = argmax_i M(·,j). Pairs are returned in increasing source order.
func TrustedPairs(m *dense.Matrix) [][2]int {
	if m.Rows == 0 || m.Cols == 0 {
		return nil
	}
	rowBest := m.ArgmaxRows()
	colBest := make([]int, m.Cols)
	colVal := make([]float64, m.Cols)
	for j := range colVal {
		colVal[j] = m.At(0, j)
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			if v > colVal[j] {
				colVal[j] = v
				colBest[j] = i
			}
		}
	}
	var pairs [][2]int
	for i, j := range rowBest {
		if colBest[j] == i {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	return pairs
}
