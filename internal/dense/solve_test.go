package dense

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveKnownSystem(t *testing.T) {
	a := FromRows([][]float64{{2, 1}, {1, 3}})
	b := FromRows([][]float64{{3}, {5}})
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// 2x + y = 3, x + 3y = 5 → x = 4/5, y = 7/5.
	if !almostEqual(x.At(0, 0), 0.8, 1e-10) || !almostEqual(x.At(1, 0), 1.4, 1e-10) {
		t.Fatalf("Solve = %v", x)
	}
}

func TestSolveRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		a := randomMatrix(n, n, rng)
		// Diagonal dominance keeps the random system comfortably
		// non-singular.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)+1)
		}
		want := randomMatrix(n, 2, rng)
		b := Mul(a, want)
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		return x.Equal(want, 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSolveSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, Identity(2)); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Zero on the leading diagonal forces a row swap.
	a := FromRows([][]float64{{0, 1}, {1, 0}})
	b := FromRows([][]float64{{2}, {3}})
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x.At(0, 0), 3, 1e-12) || !almostEqual(x.At(1, 0), 2, 1e-12) {
		t.Fatalf("Solve with pivoting = %v", x)
	}
}

func TestSolveDoesNotMutateInputs(t *testing.T) {
	a := FromRows([][]float64{{4, 1}, {1, 3}})
	b := FromRows([][]float64{{1}, {2}})
	aOrig, bOrig := a.Clone(), b.Clone()
	if _, err := Solve(a, b); err != nil {
		t.Fatal(err)
	}
	if !a.Equal(aOrig, 0) || !b.Equal(bOrig, 0) {
		t.Fatal("Solve mutated its inputs")
	}
}

func TestSolveRidgeRecoversMapping(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w := randomMatrix(6, 4, rng)
	a := randomMatrix(40, 6, rng)
	b := Mul(a, w)
	got, err := SolveRidge(a, b, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(w, 1e-5) {
		t.Fatal("ridge solution does not recover the exact mapping")
	}
}

func TestSolveRidgeRegularises(t *testing.T) {
	// A rank-deficient design matrix is solvable only thanks to λ > 0.
	a := FromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	b := FromRows([][]float64{{1}, {2}, {3}})
	x, err := SolveRidge(a, b, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// Symmetry of the problem forces both coefficients equal.
	if !almostEqual(x.At(0, 0), x.At(1, 0), 1e-10) {
		t.Fatalf("ridge solution not symmetric: %v", x)
	}
}
