package dense

import (
	"fmt"
	"math"
	"sort"
)

// SymEigen computes the eigendecomposition of a symmetric matrix using the
// cyclic Jacobi method. It returns the eigenvalues in descending order and
// a matrix whose columns are the corresponding orthonormal eigenvectors.
// It is intended for the small matrices that arise in landmark methods
// (REGAL's p×p similarity block) and spectral feature extraction; the cost
// is O(n³) per sweep.
func SymEigen(a *Matrix) ([]float64, *Matrix) {
	n := a.Rows
	if a.Cols != n {
		panic(fmt.Sprintf("dense: SymEigen needs a square matrix, got %dx%d", a.Rows, a.Cols))
	}
	w := a.Clone()
	v := Identity(n)
	const maxSweeps = 64
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := offDiagNorm(w)
		if off <= 1e-12*(1+w.FrobNorm()) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) < 1e-15 {
					continue
				}
				jacobiRotate(w, v, p, q)
			}
		}
	}
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = w.At(i, i)
	}
	// Sort eigenpairs by descending eigenvalue.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return vals[idx[i]] > vals[idx[j]] })
	sortedVals := make([]float64, n)
	sortedVecs := New(n, n)
	for newCol, oldCol := range idx {
		sortedVals[newCol] = vals[oldCol]
		for r := 0; r < n; r++ {
			sortedVecs.Set(r, newCol, v.At(r, oldCol))
		}
	}
	return sortedVals, sortedVecs
}

// jacobiRotate annihilates w(p,q) with a Givens rotation and accumulates
// the rotation into v.
func jacobiRotate(w, v *Matrix, p, q int) {
	n := w.Rows
	apq := w.At(p, q)
	app, aqq := w.At(p, p), w.At(q, q)
	theta := (aqq - app) / (2 * apq)
	var t float64
	if theta >= 0 {
		t = 1 / (theta + math.Sqrt(theta*theta+1))
	} else {
		t = -1 / (-theta + math.Sqrt(theta*theta+1))
	}
	c := 1 / math.Sqrt(t*t+1)
	s := t * c
	tau := s / (1 + c)

	w.Set(p, p, app-t*apq)
	w.Set(q, q, aqq+t*apq)
	w.Set(p, q, 0)
	w.Set(q, p, 0)
	for i := 0; i < n; i++ {
		if i == p || i == q {
			continue
		}
		aip, aiq := w.At(i, p), w.At(i, q)
		w.Set(i, p, aip-s*(aiq+tau*aip))
		w.Set(p, i, w.At(i, p))
		w.Set(i, q, aiq+s*(aip-tau*aiq))
		w.Set(q, i, w.At(i, q))
	}
	for i := 0; i < n; i++ {
		vip, viq := v.At(i, p), v.At(i, q)
		v.Set(i, p, vip-s*(viq+tau*vip))
		v.Set(i, q, viq+s*(vip-tau*viq))
	}
}

func offDiagNorm(w *Matrix) float64 {
	var s float64
	n := w.Rows
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := w.At(i, j)
			s += 2 * v * v
		}
	}
	return math.Sqrt(s)
}
