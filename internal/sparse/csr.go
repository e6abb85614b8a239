// Package sparse implements compressed sparse row (CSR) matrices and the
// handful of operations the HTC pipeline needs: sparse×dense products for
// GCN aggregation, diagonal scaling for trusted-pair reinforcement
// (R·L̃·R), transposition and norms. Matrices are immutable after
// construction, which makes them safe to share across goroutines.
package sparse

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/htc-align/htc/internal/dense"
)

// Entry is one coordinate-format (COO) element used to build a CSR matrix.
type Entry struct {
	Row, Col int32
	Val      float64
}

// CSR is a compressed sparse row matrix. Construct it with FromEntries or
// FromDense; the zero value is an empty 0×0 matrix.
type CSR struct {
	Rows, Cols int
	// RowPtr has length Rows+1; row i occupies ColIdx[RowPtr[i]:RowPtr[i+1]].
	RowPtr []int32
	// ColIdx holds the column of each stored value, sorted within a row.
	ColIdx []int32
	// Val holds the stored values, parallel to ColIdx.
	Val []float64
}

// FromEntries builds a CSR matrix from coordinate entries. Duplicate
// (row, col) entries are summed; explicit zeros are kept out of the result.
// The input slice is not modified.
func FromEntries(rows, cols int, entries []Entry) *CSR {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("sparse: negative dimension %dx%d", rows, cols))
	}
	es := slices.Clone(entries)
	slices.SortFunc(es, compareEntries)
	c := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int32, rows+1)}
	for i := 0; i < len(es); {
		e := es[i]
		if e.Row < 0 || int(e.Row) >= rows || e.Col < 0 || int(e.Col) >= cols {
			panic(fmt.Sprintf("sparse: entry (%d,%d) out of bounds for %dx%d", e.Row, e.Col, rows, cols))
		}
		sum := e.Val
		j := i + 1
		for j < len(es) && es[j].Row == e.Row && es[j].Col == e.Col {
			sum += es[j].Val
			j++
		}
		if sum != 0 {
			c.ColIdx = append(c.ColIdx, e.Col)
			c.Val = append(c.Val, sum)
			c.RowPtr[e.Row+1]++
		}
		i = j
	}
	for i := 0; i < rows; i++ {
		c.RowPtr[i+1] += c.RowPtr[i]
	}
	return c
}

// compareEntries orders entries by row, then by column.
func compareEntries(a, b Entry) int {
	if c := cmp.Compare(a.Row, b.Row); c != 0 {
		return c
	}
	return cmp.Compare(a.Col, b.Col)
}

// Identity returns the n×n identity matrix in CSR form.
func Identity(n int) *CSR {
	if n < 0 {
		panic(fmt.Sprintf("sparse: negative dimension %d", n))
	}
	c := &CSR{
		Rows: n, Cols: n,
		RowPtr: make([]int32, n+1),
		ColIdx: make([]int32, n),
		Val:    make([]float64, n),
	}
	for i := 0; i < n; i++ {
		c.RowPtr[i+1] = int32(i + 1)
		c.ColIdx[i] = int32(i)
		c.Val[i] = 1
	}
	return c
}

// Prune returns a copy of c without the entries whose magnitude is below
// eps. With keepDiag set, diagonal entries survive regardless of size —
// the invariant diffusion matrices need so every node stays
// self-connected. The result is sized exactly: surviving entries are
// counted first, so no append-doubling garbage is produced.
func (c *CSR) Prune(eps float64, keepDiag bool) *CSR {
	keep := func(i int, p int32) bool {
		v := c.Val[p]
		return v >= eps || -v >= eps || (keepDiag && int(c.ColIdx[p]) == i)
	}
	nnz := 0
	for i := 0; i < c.Rows; i++ {
		for p := c.RowPtr[i]; p < c.RowPtr[i+1]; p++ {
			if keep(i, p) {
				nnz++
			}
		}
	}
	out := &CSR{
		Rows: c.Rows, Cols: c.Cols,
		RowPtr: make([]int32, c.Rows+1),
		ColIdx: make([]int32, 0, nnz),
		Val:    make([]float64, 0, nnz),
	}
	for i := 0; i < c.Rows; i++ {
		for p := c.RowPtr[i]; p < c.RowPtr[i+1]; p++ {
			if keep(i, p) {
				out.ColIdx = append(out.ColIdx, c.ColIdx[p])
				out.Val = append(out.Val, c.Val[p])
			}
		}
		out.RowPtr[i+1] = int32(len(out.Val))
	}
	return out
}

// FromDense converts a dense matrix to CSR, dropping exact zeros.
func FromDense(m *dense.Matrix) *CSR {
	var entries []Entry
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			if v != 0 {
				entries = append(entries, Entry{Row: int32(i), Col: int32(j), Val: v})
			}
		}
	}
	return FromEntries(m.Rows, m.Cols, entries)
}

// ToDense materialises the matrix densely. Intended for tests and small
// matrices only.
func (c *CSR) ToDense() *dense.Matrix {
	m := dense.New(c.Rows, c.Cols)
	for i := 0; i < c.Rows; i++ {
		for p := c.RowPtr[i]; p < c.RowPtr[i+1]; p++ {
			m.Set(i, int(c.ColIdx[p]), c.Val[p])
		}
	}
	return m
}

// NNZ returns the number of stored (non-zero) entries.
func (c *CSR) NNZ() int { return len(c.Val) }

// At returns element (i, j) using binary search within row i.
func (c *CSR) At(i, j int) float64 {
	lo, hi := int(c.RowPtr[i]), int(c.RowPtr[i+1])
	pos := lo + sort.Search(hi-lo, func(k int) bool { return c.ColIdx[lo+k] >= int32(j) })
	if pos < hi && c.ColIdx[pos] == int32(j) {
		return c.Val[pos]
	}
	return 0
}

// Clone returns a deep copy of c.
func (c *CSR) Clone() *CSR {
	cp := &CSR{
		Rows: c.Rows, Cols: c.Cols,
		RowPtr: append([]int32(nil), c.RowPtr...),
		ColIdx: append([]int32(nil), c.ColIdx...),
		Val:    append([]float64(nil), c.Val...),
	}
	return cp
}

// Transpose returns cᵀ as a new CSR matrix.
func (c *CSR) Transpose() *CSR {
	t := &CSR{
		Rows: c.Cols, Cols: c.Rows,
		RowPtr: make([]int32, c.Cols+1),
		ColIdx: make([]int32, c.NNZ()),
		Val:    make([]float64, c.NNZ()),
	}
	for _, j := range c.ColIdx {
		t.RowPtr[j+1]++
	}
	for i := 0; i < t.Rows; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	next := append([]int32(nil), t.RowPtr...)
	for i := 0; i < c.Rows; i++ {
		for p := c.RowPtr[i]; p < c.RowPtr[i+1]; p++ {
			j := c.ColIdx[p]
			pos := next[j]
			next[j]++
			t.ColIdx[pos] = int32(i)
			t.Val[pos] = c.Val[p]
		}
	}
	return t
}

// RowSums returns the sum of each row's stored values (the degree vector
// of a weighted adjacency matrix).
func (c *CSR) RowSums() []float64 {
	out := make([]float64, c.Rows)
	for i := 0; i < c.Rows; i++ {
		var s float64
		for p := c.RowPtr[i]; p < c.RowPtr[i+1]; p++ {
			s += c.Val[p]
		}
		out[i] = s
	}
	return out
}

// RowMax returns the maximum stored value of each row, or 0 for empty rows.
// Negative-only rows also report their true maximum. This feeds the
// modified self-connection of HTC Eq. (3).
func (c *CSR) RowMax() []float64 {
	out := make([]float64, c.Rows)
	for i := 0; i < c.Rows; i++ {
		if c.RowPtr[i] == c.RowPtr[i+1] {
			continue
		}
		mx := math.Inf(-1)
		for p := c.RowPtr[i]; p < c.RowPtr[i+1]; p++ {
			if c.Val[p] > mx {
				mx = c.Val[p]
			}
		}
		out[i] = mx
	}
	return out
}

// SumSquares returns Σ v², the squared Frobenius norm of the stored values.
func (c *CSR) SumSquares() float64 {
	var s float64
	for _, v := range c.Val {
		s += v * v
	}
	return s
}

// FrobNorm returns the Frobenius norm of c.
func (c *CSR) FrobNorm() float64 { return math.Sqrt(c.SumSquares()) }

// DiagScale returns diag(left)·c·diag(right) as a new matrix: entry (i, j)
// becomes left[i]·v·right[j]. Either vector may be nil, meaning identity.
// The HTC fine-tuning step uses this to apply the reinforcement matrices
// (Eq. 14) without mutating the trained Laplacians.
func (c *CSR) DiagScale(left, right []float64) *CSR {
	if left != nil && len(left) != c.Rows {
		panic(fmt.Sprintf("sparse: DiagScale left length %d, want %d", len(left), c.Rows))
	}
	if right != nil && len(right) != c.Cols {
		panic(fmt.Sprintf("sparse: DiagScale right length %d, want %d", len(right), c.Cols))
	}
	out := c.Clone()
	c.DiagScaleInto(out, left, right)
	return out
}

// DiagScaleInto writes diag(left)·c·diag(right) into dst, which must share
// c's sparsity pattern (typically a Clone made once). The fine-tuning loop
// rescales the same Laplacian every iteration; reusing dst avoids
// re-cloning the index arrays each round.
func (c *CSR) DiagScaleInto(dst *CSR, left, right []float64) {
	if left != nil && len(left) != c.Rows {
		panic(fmt.Sprintf("sparse: DiagScaleInto left length %d, want %d", len(left), c.Rows))
	}
	if right != nil && len(right) != c.Cols {
		panic(fmt.Sprintf("sparse: DiagScaleInto right length %d, want %d", len(right), c.Cols))
	}
	if dst.Rows != c.Rows || dst.Cols != c.Cols || len(dst.Val) != len(c.Val) {
		panic(fmt.Sprintf("sparse: DiagScaleInto dst %s does not match src %s", dst, c))
	}
	for i := 0; i < c.Rows; i++ {
		lf := 1.0
		if left != nil {
			lf = left[i]
		}
		for p := c.RowPtr[i]; p < c.RowPtr[i+1]; p++ {
			v := c.Val[p] * lf
			if right != nil {
				v *= right[c.ColIdx[p]]
			}
			dst.Val[p] = v
		}
	}
}

// String renders the shape and density for debugging.
func (c *CSR) String() string {
	return fmt.Sprintf("sparse.CSR(%dx%d, nnz=%d)", c.Rows, c.Cols, c.NNZ())
}
