package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/htc-align/htc/internal/dense"
)

func randomSparseDense(r, c int, density float64, rng *rand.Rand) *dense.Matrix {
	m := dense.New(r, c)
	for i := range m.Data {
		if rng.Float64() < density {
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

func TestFromEntriesBasics(t *testing.T) {
	m := FromEntries(3, 3, []Entry{
		{0, 1, 2}, {1, 2, 3}, {2, 0, 4}, {0, 1, 5}, // duplicate (0,1) sums to 7
	})
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", m.NNZ())
	}
	if m.At(0, 1) != 7 {
		t.Fatalf("At(0,1) = %v, want 7 (summed duplicates)", m.At(0, 1))
	}
	if m.At(0, 0) != 0 {
		t.Fatalf("At(0,0) = %v, want 0", m.At(0, 0))
	}
}

func TestFromEntriesDropsCancellingDuplicates(t *testing.T) {
	m := FromEntries(2, 2, []Entry{{0, 0, 1}, {0, 0, -1}, {1, 1, 5}})
	if m.NNZ() != 1 {
		t.Fatalf("NNZ = %d, want 1 (cancelled duplicate kept)", m.NNZ())
	}
}

func TestFromEntriesOutOfBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-bounds entry")
		}
	}()
	FromEntries(2, 2, []Entry{{5, 0, 1}})
}

func TestDenseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(10), 1+rng.Intn(10)
		d := randomSparseDense(r, c, 0.4, rng)
		return FromDense(d).ToDense().Equal(d, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestTransposeMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(10), 1+rng.Intn(10)
		d := randomSparseDense(r, c, 0.4, rng)
		return FromDense(d).Transpose().ToDense().Equal(d.T(), 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMulDenseMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(12)
		a := randomSparseDense(m, k, 0.35, rng)
		x := randomSparseDense(k, n, 1.0, rng)
		got := FromDense(a).MulDense(x)
		want := dense.Mul(a, x)
		return got.Equal(want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMulDenseLargeParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomSparseDense(300, 300, 0.05, rng)
	x := randomSparseDense(300, 40, 1.0, rng)
	got := FromDense(a).MulDense(x)
	if !got.Equal(dense.Mul(a, x), 1e-8) {
		t.Fatal("parallel sparse MulDense disagrees with dense product")
	}
}

// refMulDenseInto is the one-term reference for MulDenseInto: one pass
// over the destination row per stored entry, zeros included.
func refMulDenseInto(c *CSR, dst, x *dense.Matrix) {
	dst.Zero()
	for i := 0; i < c.Rows; i++ {
		di := dst.Row(i)
		for p := c.RowPtr[i]; p < c.RowPtr[i+1]; p++ {
			v := c.Val[p]
			xj := x.Row(int(c.ColIdx[p]))
			for q, xv := range xj {
				di[q] += v * xv
			}
		}
	}
}

// kernelCSR returns an m×k CSR matrix storing about half its entries:
// normal draws salted with explicit +0 and -0 values, rows that store
// nothing and rows that store only zeros. MulDenseInto applies every
// stored entry, zeros included, so those rows exercise its grouping.
func kernelCSR(m, k int, rng *rand.Rand) *CSR {
	c := &CSR{Rows: m, Cols: k, RowPtr: make([]int32, m+1)}
	for i := 0; i < m; i++ {
		kind := rng.Intn(8) // 0: stores nothing, 1: stores only zeros
		for j := 0; j < k; j++ {
			if kind == 0 || rng.Intn(2) == 0 {
				continue
			}
			v := rng.NormFloat64()
			switch u := rng.Intn(10); {
			case kind == 1 || u == 0:
				v = 0
			case u == 1:
				v = math.Copysign(0, -1)
			}
			c.ColIdx = append(c.ColIdx, int32(j))
			c.Val = append(c.Val, v)
		}
		c.RowPtr[i+1] = int32(len(c.Val))
	}
	return c
}

// TestMulDenseBitIdenticalToReference checks MulDenseInto against the
// one-term reference loop, comparing the bits of every entry. Rows store
// every count of entries mod 4; x holds -0 entries and rare ±Inf, so a
// stored zero the kernel skipped would lose the reference's NaN (0·Inf).
// The larger shapes pass par.For's fan-out threshold, so 1, 2, 3 and 8
// workers split the rows differently.
func TestMulDenseBitIdenticalToReference(t *testing.T) {
	for _, sh := range []struct{ m, k, n int }{
		{1, 1, 1}, {3, 2, 5}, {4, 3, 7}, {5, 4, 1}, {6, 7, 9}, {9, 8, 4},
		{160, 40, 50}, {150, 41, 45}, {140, 42, 55}, {130, 43, 48},
	} {
		for seed := int64(0); seed < 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			c := kernelCSR(sh.m, sh.k, rng)
			x := dense.New(sh.k, sh.n)
			for i := range x.Data {
				switch u := rng.Float64(); {
				case u < 0.1:
					x.Data[i] = math.Copysign(0, -1)
				case u < 0.12:
					x.Data[i] = math.Inf(1 - 2*rng.Intn(2))
				default:
					x.Data[i] = rng.NormFloat64()
				}
			}
			want := dense.New(sh.m, sh.n)
			refMulDenseInto(c, want, x)
			for _, w := range []int{1, 2, 3, 8} {
				got := dense.New(sh.m, sh.n)
				got.Fill(math.NaN())
				c.MulDenseInto(got, x, w)
				for i, v := range want.Data {
					if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
						t.Fatalf("%v seed %d workers %d: entry %d = %v, want %v", sh, seed, w, i, got.Data[i], v)
					}
				}
			}
		}
	}
}

func TestDotDense(t *testing.T) {
	a := FromEntries(2, 2, []Entry{{0, 1, 2}, {1, 0, 3}})
	x := dense.FromRows([][]float64{{10, 20}, {30, 40}})
	// 2*20 + 3*30 = 130.
	if got := a.DotDense(x); got != 130 {
		t.Fatalf("DotDense = %v, want 130", got)
	}
}

func TestRowSumsRowMax(t *testing.T) {
	a := FromEntries(3, 3, []Entry{{0, 0, 1}, {0, 2, 5}, {2, 1, -2}})
	sums := a.RowSums()
	if sums[0] != 6 || sums[1] != 0 || sums[2] != -2 {
		t.Fatalf("RowSums = %v", sums)
	}
	maxes := a.RowMax()
	if maxes[0] != 5 || maxes[1] != 0 || maxes[2] != -2 {
		t.Fatalf("RowMax = %v", maxes)
	}
}

func TestDiagScale(t *testing.T) {
	a := FromEntries(2, 2, []Entry{{0, 0, 1}, {0, 1, 2}, {1, 1, 3}})
	scaled := a.DiagScale([]float64{2, 3}, []float64{5, 7})
	if scaled.At(0, 0) != 10 || scaled.At(0, 1) != 28 || scaled.At(1, 1) != 63 {
		t.Fatalf("DiagScale = %v", scaled.ToDense())
	}
	// Original must be untouched.
	if a.At(0, 0) != 1 {
		t.Fatal("DiagScale mutated its receiver")
	}
}

func TestDiagScaleNilIsIdentity(t *testing.T) {
	a := FromEntries(2, 2, []Entry{{0, 1, 4}})
	if !a.DiagScale(nil, nil).ToDense().Equal(a.ToDense(), 0) {
		t.Fatal("DiagScale(nil, nil) changed the matrix")
	}
	left := a.DiagScale([]float64{2, 2}, nil)
	if left.At(0, 1) != 8 {
		t.Fatalf("left-only DiagScale = %v", left.At(0, 1))
	}
}

func TestFrobNorm(t *testing.T) {
	a := FromEntries(2, 2, []Entry{{0, 0, 3}, {1, 1, 4}})
	if math.Abs(a.FrobNorm()-5) > 1e-12 {
		t.Fatalf("FrobNorm = %v", a.FrobNorm())
	}
}

func TestCloneIndependent(t *testing.T) {
	a := FromEntries(1, 1, []Entry{{0, 0, 1}})
	b := a.Clone()
	b.Val[0] = 99
	if a.Val[0] != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestAtEmptyRow(t *testing.T) {
	a := FromEntries(3, 3, []Entry{{0, 0, 1}})
	if a.At(1, 1) != 0 {
		t.Fatal("At on empty row should be 0")
	}
}

func BenchmarkMulDense(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := FromDense(randomSparseDense(1000, 1000, 0.01, rng))
	x := randomSparseDense(1000, 64, 1.0, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulDense(x)
	}
}
