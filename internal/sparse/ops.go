package sparse

import (
	"fmt"

	"github.com/htc-align/htc/internal/dense"
	"github.com/htc-align/htc/internal/par"
)

// MulDense returns c·x for a CSR matrix c (m×k) and dense x (k×n). This is
// the aggregation kernel of the orbit-weighted GCN: every layer computes
// L̃·(H·W) through it. Rows of the result are computed in parallel.
func (c *CSR) MulDense(x *dense.Matrix) *dense.Matrix {
	out := dense.New(c.Rows, x.Cols)
	c.MulDenseInto(out, x, 0)
	return out
}

// MulDenseInto computes dst = c·x, overwriting dst, fanning out across at
// most `workers` goroutines (≤ 0 = GOMAXPROCS). Each row of dst sums the
// rows of x scaled by the stored entries of the matching row of c, in
// storage order, through a dense.RowAccum: four scaled rows per pass over
// the row of dst, rounding exactly as one pass per entry would. Each dst
// row is written by exactly one goroutine, so the result is bit-identical
// for every worker count.
func (c *CSR) MulDenseInto(dst, x *dense.Matrix, workers int) {
	if c.Cols != x.Rows || dst.Rows != c.Rows || dst.Cols != x.Cols {
		panic(fmt.Sprintf("sparse: MulDense dimension mismatch %s · %dx%d -> %dx%d",
			c, x.Rows, x.Cols, dst.Rows, dst.Cols))
	}
	n := x.Cols
	dst.Zero()
	par.For(workers, c.Rows, avgRowCost(c)*n, func(start, end int) {
		var acc dense.RowAccum
		for i := start; i < end; i++ {
			acc.Reset(dst.Row(i))
			for p := c.RowPtr[i]; p < c.RowPtr[i+1]; p++ {
				acc.Add(c.Val[p], x.Row(int(c.ColIdx[p])))
			}
			acc.Flush()
		}
	})
}

// DotDense returns Σ_(i,j) c(i,j)·x(i,j), the inner product between the
// sparse matrix and a dense one. The reconstruction loss uses it to
// evaluate tr(L̃ᵀ·HHᵀ) without forming the n×n reconstruction.
func (c *CSR) DotDense(x *dense.Matrix) float64 {
	if c.Rows != x.Rows || c.Cols != x.Cols {
		panic(fmt.Sprintf("sparse: DotDense shape mismatch %s vs %dx%d", c, x.Rows, x.Cols))
	}
	var s float64
	for i := 0; i < c.Rows; i++ {
		xi := x.Row(i)
		for p := c.RowPtr[i]; p < c.RowPtr[i+1]; p++ {
			s += c.Val[p] * xi[c.ColIdx[p]]
		}
	}
	return s
}

func avgRowCost(c *CSR) int {
	if c.Rows == 0 {
		return 1
	}
	return 1 + c.NNZ()/c.Rows
}
