// Package align implements HTC's alignment machinery on top of node
// embeddings: the Pearson similarity matrix (Eq. 9), hubness degrees and
// the locally isolated similarity index LISI (Eq. 10–11), mutual-nearest
// trusted pairs (Eq. 12), the trusted-pair fine-tuning loop of Algorithm 2
// (Eq. 13–14) and the posterior importance integration of Eq. 15.
//
// The top-k and ANN candidate generators keep each node's k best
// counterparts through internal/topk: a larger score first, equal scores
// to the lower index, the order SortRowDesc sorts by.
package align

import (
	"fmt"
	"sort"

	"github.com/htc-align/htc/internal/dense"
	"github.com/htc-align/htc/internal/par"
)

// simScratch holds the similarity working set of one fine-tuning loop: the
// centered embedding copies, the ns×nt correlation and LISI matrices and
// the nt×ns transposed view. Algorithm 2 recomputes all of them every
// iteration; keeping them in one reusable bundle turns ~6 large
// allocations per iteration into zero after the first.
type simScratch struct {
	a, b   *dense.Matrix // centered + row-normalised embedding copies
	corr   *dense.Matrix // ns×nt Pearson similarity
	corrT  *dense.Matrix // nt×ns transposed similarity (column-scan buffer)
	lisi   *dense.Matrix // ns×nt LISI
	dt, ds []float64     // hubness degrees
}

func ensureVec(v []float64, n int) []float64 {
	if len(v) == n {
		return v
	}
	return make([]float64, n)
}

// Corr returns the Pearson correlation matrix between the rows of hs
// (ns×d) and ht (nt×d): entry (i, j) is corr(hs_i, ht_j) per Eq. 9.
// Constant (zero-variance) embeddings correlate 0 with everything.
func Corr(hs, ht *dense.Matrix) *dense.Matrix {
	s := &simScratch{}
	return s.corrInto(hs, ht, 0)
}

// corrInto computes the Pearson similarity into the scratch's corr buffer.
// workers bounds the kernel fan-out (≤ 0 = GOMAXPROCS).
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
// 0. The selected values are summed in descending order: float addition
// is order-sensitive, and the top-k backend's candidate scores arrive
// pre-sorted, so a shared summation order is what makes the two backends
// bit-identical (equal values commute, so ties cannot perturb the sum).
func topMean(xs []float64, m int, buf []float64) float64 {
	if m <= 0 || len(xs) == 0 {
		return 0
	}
	buf = append(buf[:0], xs...)
	if m >= len(xs) {
		m = len(xs)
	} else {
		quickSelectDesc(buf, m)
	}
	sort.Float64s(buf[:m])
	var s float64
	for i := m - 1; i >= 0; i-- {
		s += buf[i]
	}
	return s / float64(m)
}

// quickSelectDesc partially sorts xs so that its first m entries are the m
// largest (in arbitrary order).
func quickSelectDesc(xs []float64, m int) {
	lo, hi := 0, len(xs)-1
	for lo < hi {
		p := partitionDesc(xs, lo, hi)
		switch {
		case p == m-1:
			return
		case p < m-1:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
}

func partitionDesc(xs []float64, lo, hi int) int {
	mid := lo + (hi-lo)/2
	// Median-of-three pivot defends against adversarial (sorted) input.
	if xs[mid] > xs[lo] {
		xs[mid], xs[lo] = xs[lo], xs[mid]
	}
	if xs[hi] > xs[lo] {
		xs[hi], xs[lo] = xs[lo], xs[hi]
	}
	if xs[hi] > xs[mid] {
		xs[hi], xs[mid] = xs[mid], xs[hi]
	}
	pivot := xs[mid]
	xs[mid], xs[hi] = xs[hi], xs[mid]
	store := lo
	for i := lo; i < hi; i++ {
		if xs[i] > pivot {
			xs[i], xs[store] = xs[store], xs[i]
			store++
		}
	}
	xs[store], xs[hi] = xs[hi], xs[store]
	return store
}

// HubnessDegrees computes Dt (per source node: mean similarity to its m
// nearest target neighbours) and Ds (per target node, symmetric) from a
// similarity matrix, per Eq. 10.
func HubnessDegrees(corr *dense.Matrix, m int) (dt, ds []float64) {
	s := &simScratch{}
	return s.hubness(corr, m, 0)
}

// hubness fills the scratch's dt/ds vectors. The per-target degrees Ds
// need the columns of corr; instead of the old element-by-element strided
// gather (one cache line fetched per entry), the matrix is transposed once
// with the cache-blocked TransposeInto and Ds becomes a sequential row
// scan like Dt.
func (s *simScratch) hubness(corr *dense.Matrix, m, workers int) (dt, ds []float64) {
	s.dt = ensureVec(s.dt, corr.Rows)
	s.ds = ensureVec(s.ds, corr.Cols)
	s.corrT = dense.Ensure(s.corrT, corr.Cols, corr.Rows)
	dense.TransposeInto(s.corrT, corr)
	dt, ds = s.dt, s.ds
	par.For(workers, corr.Rows, corr.Cols, func(start, end int) {
		buf := make([]float64, corr.Cols)
		for i := start; i < end; i++ {
			dt[i] = topMean(corr.Row(i), m, buf)
		}
	})
	corrT := s.corrT
	par.For(workers, corrT.Rows, corrT.Cols, func(start, end int) {
		buf := make([]float64, corrT.Cols)
		for j := start; j < end; j++ {
			ds[j] = topMean(corrT.Row(j), m, buf)
		}
	})
	return dt, ds
}

// LISI converts a similarity matrix into the locally isolated similarity
// index of Eq. 11: LISI(i,j) = 2·corr(i,j) − Dt(i) − Ds(j). High values
// mark pairs that are mutually similar yet locally isolated, which
// suppresses hub nodes.
func LISI(corr *dense.Matrix, m int) *dense.Matrix {
	s := &simScratch{}
	return s.lisiInto(corr, m, 0)
}

// lisiInto computes LISI into the scratch's lisi buffer, reusing the
// hubness vectors and the transposed similarity.
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
