package align

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/htc-align/htc/internal/dense"
)

func TestCorrSelf(t *testing.T) {
	h := dense.FromRows([][]float64{{1, 2, 3}, {-1, 0, 1}})
	c := new(simScratch).corrInto(h, h, 0)
	if math.Abs(c.At(0, 0)-1) > 1e-12 || math.Abs(c.At(1, 1)-1) > 1e-12 {
		t.Fatalf("self correlation != 1: %v", c)
	}
	// Rows are perfectly linearly related → corr 1 everywhere here.
	if math.Abs(c.At(0, 1)-1) > 1e-12 {
		t.Fatalf("corr of affinely related rows = %v, want 1", c.At(0, 1))
	}
}

func TestCorrAntiCorrelated(t *testing.T) {
	a := dense.FromRows([][]float64{{1, 2, 3}})
	b := dense.FromRows([][]float64{{3, 2, 1}})
	c := new(simScratch).corrInto(a, b, 0)
	if math.Abs(c.At(0, 0)+1) > 1e-12 {
		t.Fatalf("corr = %v, want -1", c.At(0, 0))
	}
}

func TestCorrConstantRowIsZero(t *testing.T) {
	a := dense.FromRows([][]float64{{5, 5, 5}})
	b := dense.FromRows([][]float64{{1, 2, 3}})
	c := new(simScratch).corrInto(a, b, 0)
	if c.At(0, 0) != 0 {
		t.Fatalf("constant row corr = %v, want 0", c.At(0, 0))
	}
}

func TestCorrScaleAndTranslationInvariance(t *testing.T) {
	// Pearson correlation must be invariant to per-row affine maps with
	// positive scale — the property the paper cites for choosing it.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 3 + rng.Intn(6)
		a := dense.New(2, d)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		b := a.Clone()
		scale := 0.5 + rng.Float64()*3
		shift := rng.NormFloat64() * 10
		for j := 0; j < d; j++ {
			b.Set(0, j, b.At(0, j)*scale+shift)
		}
		c1 := new(simScratch).corrInto(a, a, 0)
		c2 := new(simScratch).corrInto(b, a, 0)
		return math.Abs(c1.At(0, 0)-c2.At(0, 0)) < 1e-9 &&
			math.Abs(c1.At(0, 1)-c2.At(0, 1)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCorrMismatchedDimsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	new(simScratch).corrInto(dense.New(2, 3), dense.New(2, 4), 0)
}

func TestTopMean(t *testing.T) {
	var ts topScratch
	xs := []float64{5, 1, 4, 2, 3}
	if got := topMean(xs, 2, &ts); got != 4.5 {
		t.Fatalf("topMean m=2 = %v, want 4.5", got)
	}
	if got := topMean(xs, 10, &ts); got != 3 {
		t.Fatalf("topMean m>len = %v, want 3", got)
	}
	if got := topMean(xs, 0, &ts); got != 0 {
		t.Fatalf("topMean m=0 = %v", got)
	}
	// Input must not be reordered.
	if xs[0] != 5 || xs[4] != 3 {
		t.Fatalf("topMean mutated input: %v", xs)
	}
}

// TestTopMeanMatchesSort holds topMean to the bits of a sort-based
// reference: sort descending, then sum the first m in that order. One
// scratch serves every call, as a worker's does, across lengths and m
// that change between calls: m = 1, m = len(xs), m > len(xs) and a
// random m, on normal draws and on draws from a few tied levels
// (including ±0 and negatives).
func TestTopMeanMatchesSort(t *testing.T) {
	var ts topScratch
	levels := []float64{-2, -0.5, math.Copysign(0, -1), 0, 0.25, 0.75}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		xs := make([]float64, n)
		for i := range xs {
			if seed%2 == 0 {
				xs[i] = rng.NormFloat64()
			} else {
				xs[i] = levels[rng.Intn(len(levels))]
			}
		}
		sorted := append([]float64(nil), xs...)
		sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
		for _, m := range []int{1, n, n + 3, 1 + rng.Intn(n)} {
			k := min(m, n)
			var want float64
			for _, v := range sorted[:k] {
				want += v
			}
			want /= float64(k)
			if got := topMean(xs, m, &ts); math.Float64bits(got) != math.Float64bits(want) {
				t.Logf("seed %d n=%d m=%d: topMean %v (%#x), sorted sum %v (%#x)",
					seed, n, m, got, math.Float64bits(got), want, math.Float64bits(want))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHubnessDegrees(t *testing.T) {
	corr := dense.FromRows([][]float64{
		{0.9, 0.1, 0.5},
		{0.2, 0.8, 0.3},
	})
	dt, ds := new(simScratch).hubness(corr, 2, 0)
	if math.Abs(dt[0]-0.7) > 1e-12 { // top-2 of row 0: 0.9, 0.5
		t.Fatalf("dt[0] = %v", dt[0])
	}
	if math.Abs(ds[2]-0.4) > 1e-12 { // column 2: 0.5, 0.3
		t.Fatalf("ds[2] = %v", ds[2])
	}
}

func TestLISIPenalisesHubs(t *testing.T) {
	// Target node 0 is a hub: similar to both source nodes. LISI must
	// prefer the isolated match (1,1) over the hub match (1,0) even
	// though raw similarity is tied.
	corr := dense.FromRows([][]float64{
		{0.9, 0.0},
		{0.9, 0.9},
	})
	l := new(simScratch).lisiInto(corr, 2, 0)
	if l.At(1, 1) <= l.At(1, 0) {
		t.Fatalf("LISI did not penalise the hub: %v vs %v", l.At(1, 1), l.At(1, 0))
	}
}

func TestLISIFormula(t *testing.T) {
	corr := dense.FromRows([][]float64{{0.5, 0.1}, {0.3, 0.7}})
	m := 1
	dt, ds := new(simScratch).hubness(corr, m, 0)
	l := new(simScratch).lisiInto(corr, m, 0)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			want := 2*corr.At(i, j) - dt[i] - ds[j]
			if math.Abs(l.At(i, j)-want) > 1e-12 {
				t.Fatalf("LISI(%d,%d) = %v, want %v", i, j, l.At(i, j), want)
			}
		}
	}
}

func TestTrustedPairsMutualOnly(t *testing.T) {
	m := dense.FromRows([][]float64{
		{0.9, 0.2, 0.1}, // row 0 → col 0
		{0.8, 0.3, 0.2}, // row 1 → col 0 (not mutual: col 0 prefers row 0)
		{0.1, 0.2, 0.7}, // row 2 → col 2
	})
	pairs := TrustedPairs(m)
	want := [][2]int{{0, 0}, {2, 2}}
	if len(pairs) != len(want) {
		t.Fatalf("pairs = %v, want %v", pairs, want)
	}
	for i := range want {
		if pairs[i] != want[i] {
			t.Fatalf("pairs = %v, want %v", pairs, want)
		}
	}
}

func TestTrustedPairsEmpty(t *testing.T) {
	if TrustedPairs(dense.New(0, 5)) != nil {
		t.Fatal("expected nil for empty matrix")
	}
}

func TestTrustedPairsPermutationMatrix(t *testing.T) {
	// A permutation similarity matrix must yield exactly n trusted pairs.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		perm := rng.Perm(n)
		m := dense.New(n, n)
		for i := range m.Data {
			m.Data[i] = rng.Float64() * 0.1
		}
		for i, j := range perm {
			m.Set(i, j, 1)
		}
		return len(TrustedPairs(m)) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLISIRectangular(t *testing.T) {
	// Rectangular similarity matrices (partial alignment) must work and
	// keep the formula exact.
	rng := rand.New(rand.NewSource(41))
	corr := dense.New(7, 4)
	for i := range corr.Data {
		corr.Data[i] = rng.Float64()*2 - 1
	}
	m := 3
	dt, ds := new(simScratch).hubness(corr, m, 0)
	l := new(simScratch).lisiInto(corr, m, 0)
	if l.Rows != 7 || l.Cols != 4 {
		t.Fatalf("LISI shape %dx%d", l.Rows, l.Cols)
	}
	for i := 0; i < 7; i++ {
		for j := 0; j < 4; j++ {
			want := 2*corr.At(i, j) - dt[i] - ds[j]
			if math.Abs(l.At(i, j)-want) > 1e-12 {
				t.Fatalf("LISI(%d,%d) = %v, want %v", i, j, l.At(i, j), want)
			}
		}
	}
}

func TestTrustedPairsCountBounded(t *testing.T) {
	// Mutual-argmax pairs are injective on both sides, so at most
	// min(ns, nt) can exist.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ns, nt := 1+rng.Intn(10), 1+rng.Intn(10)
		m := dense.New(ns, nt)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		pairs := TrustedPairs(m)
		limit := ns
		if nt < limit {
			limit = nt
		}
		if len(pairs) > limit {
			return false
		}
		seenS, seenT := map[int]bool{}, map[int]bool{}
		for _, p := range pairs {
			if seenS[p[0]] || seenT[p[1]] {
				return false
			}
			seenS[p[0]] = true
			seenT[p[1]] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestIntegrateWeights(t *testing.T) {
	m0 := dense.FromRows([][]float64{{1, 0}})
	m1 := dense.FromRows([][]float64{{0, 1}})
	out, gammas := Integrate([]*dense.Matrix{m0, m1}, []int{3, 1})
	if math.Abs(gammas[0]-0.75) > 1e-12 || math.Abs(gammas[1]-0.25) > 1e-12 {
		t.Fatalf("gammas = %v", gammas)
	}
	if math.Abs(out.At(0, 0)-0.75) > 1e-12 || math.Abs(out.At(0, 1)-0.25) > 1e-12 {
		t.Fatalf("integrated = %v", out)
	}
}

func TestIntegrateZeroTrustedFallsBackUniform(t *testing.T) {
	m0 := dense.FromRows([][]float64{{1, 0}})
	m1 := dense.FromRows([][]float64{{0, 1}})
	_, gammas := Integrate([]*dense.Matrix{m0, m1}, []int{0, 0})
	if gammas[0] != 0.5 || gammas[1] != 0.5 {
		t.Fatalf("gammas = %v, want uniform", gammas)
	}
}

func TestIntegrateMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Integrate([]*dense.Matrix{dense.New(1, 1)}, []int{1, 2})
}
