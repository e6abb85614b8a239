package dense

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned by Solve and Inverse when the coefficient matrix
// is singular to working precision.
var ErrSingular = errors.New("dense: matrix is singular")

// Solve returns X such that a·X = b, using Gaussian elimination with
// partial pivoting. a must be square (n×n) and b must have n rows. Neither
// input is modified.
func Solve(a, b *Matrix) (*Matrix, error) {
	n := a.Rows
	if a.Cols != n {
		panic(fmt.Sprintf("dense: Solve needs a square matrix, got %dx%d", a.Rows, a.Cols))
	}
	if b.Rows != n {
		panic(fmt.Sprintf("dense: Solve rhs has %d rows, want %d", b.Rows, n))
	}
	lu := a.Clone()
	x := b.Clone()
	m := x.Cols
	for col := 0; col < n; col++ {
		// Partial pivot: the row with the largest magnitude in this column.
		pivot, pivotAbs := col, math.Abs(lu.At(col, col))
		for r := col + 1; r < n; r++ {
			if abs := math.Abs(lu.At(r, col)); abs > pivotAbs {
				pivot, pivotAbs = r, abs
			}
		}
		if pivotAbs < 1e-13 {
			return nil, ErrSingular
		}
		if pivot != col {
			swapRows(lu, pivot, col)
			swapRows(x, pivot, col)
		}
		inv := 1 / lu.At(col, col)
		for r := col + 1; r < n; r++ {
			f := lu.At(r, col) * inv
			if f == 0 {
				continue
			}
			lur, luc := lu.Row(r), lu.Row(col)
			for j := col; j < n; j++ {
				lur[j] -= f * luc[j]
			}
			xr, xc := x.Row(r), x.Row(col)
			for j := 0; j < m; j++ {
				xr[j] -= f * xc[j]
			}
		}
	}
	// Back substitution.
	for col := n - 1; col >= 0; col-- {
		inv := 1 / lu.At(col, col)
		xc := x.Row(col)
		for j := 0; j < m; j++ {
			xc[j] *= inv
		}
		for r := 0; r < col; r++ {
			f := lu.At(r, col)
			if f == 0 {
				continue
			}
			xr := x.Row(r)
			for j := 0; j < m; j++ {
				xr[j] -= f * xc[j]
			}
		}
	}
	return x, nil
}

// SolveRidge returns X minimising ‖a·X − b‖² + lambda·‖X‖², the ridge
// (Tikhonov) regularised least squares solution (aᵀa + λI)⁻¹aᵀb. It is
// used by the PALE baseline to learn the linear embedding mapping from
// seed anchors.
func SolveRidge(a, b *Matrix, lambda float64) (*Matrix, error) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("dense: SolveRidge row mismatch %d vs %d", a.Rows, b.Rows))
	}
	ata := MulAT(a, a)
	for i := 0; i < ata.Rows; i++ {
		ata.Data[i*ata.Cols+i] += lambda
	}
	atb := MulAT(a, b)
	return Solve(ata, atb)
}

func swapRows(m *Matrix, i, j int) {
	ri, rj := m.Row(i), m.Row(j)
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}
