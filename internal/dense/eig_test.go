package dense

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomSymmetric(n int, rng *rand.Rand) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

func TestSymEigenDiagonal(t *testing.T) {
	a := FromRows([][]float64{{3, 0}, {0, 1}})
	vals, vecs := SymEigen(a)
	if !almostEqual(vals[0], 3, 1e-10) || !almostEqual(vals[1], 1, 1e-10) {
		t.Fatalf("vals = %v", vals)
	}
	if math.Abs(vecs.At(0, 0)) != 1 && math.Abs(vecs.At(1, 0)) != 1 {
		t.Fatalf("vecs = %v", vecs)
	}
}

func TestSymEigenKnown2x2(t *testing.T) {
	// Eigenvalues of [[2,1],[1,2]] are 3 and 1.
	a := FromRows([][]float64{{2, 1}, {1, 2}})
	vals, _ := SymEigen(a)
	if !almostEqual(vals[0], 3, 1e-10) || !almostEqual(vals[1], 1, 1e-10) {
		t.Fatalf("vals = %v", vals)
	}
}

func TestSymEigenReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		a := randomSymmetric(n, rng)
		vals, vecs := SymEigen(a)
		// Rebuild A = V Λ Vᵀ.
		scaled := vecs.Clone()
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				scaled.Set(i, j, scaled.At(i, j)*vals[j])
			}
		}
		return MulBT(scaled, vecs).Equal(a, 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSymEigenOrthonormalVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randomSymmetric(10, rng)
	_, vecs := SymEigen(a)
	if !MulAT(vecs, vecs).Equal(Identity(10), 1e-8) {
		t.Fatal("eigenvectors are not orthonormal")
	}
}

func TestSymEigenDescendingOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randomSymmetric(12, rng)
	vals, _ := SymEigen(a)
	for i := 1; i < len(vals); i++ {
		if vals[i] > vals[i-1]+1e-12 {
			t.Fatalf("eigenvalues not descending: %v", vals)
		}
	}
}
