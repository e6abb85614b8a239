package dense

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveMul is the reference O(n³) product used to validate the parallel
// kernels.
func naiveMul(a, b *Matrix) *Matrix {
	c := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

func TestMulSmall(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := Mul(a, b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if !c.Equal(want, 1e-12) {
		t.Fatalf("Mul = %v, want %v", c, want)
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomMatrix(17, 17, rng)
	if !Mul(a, Identity(17)).Equal(a, 1e-12) {
		t.Fatal("A·I != A")
	}
	if !Mul(Identity(17), a).Equal(a, 1e-12) {
		t.Fatal("I·A != A")
	}
}

func TestMulMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(12)
		a := randomMatrix(m, k, rng)
		b := randomMatrix(k, n, rng)
		return Mul(a, b).Equal(naiveMul(a, b), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMulATMatchesTranspose(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(12)
		a := randomMatrix(m, k, rng)
		b := randomMatrix(m, n, rng)
		return MulAT(a, b).Equal(naiveMul(a.T(), b), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMulBTMatchesTranspose(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(12)
		a := randomMatrix(m, k, rng)
		b := randomMatrix(n, k, rng)
		return MulBT(a, b).Equal(naiveMul(a, b.T()), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMulLargeParallelPath(t *testing.T) {
	// Large enough to cross the parallel threshold in parallelRows.
	rng := rand.New(rand.NewSource(3))
	a := randomMatrix(120, 90, rng)
	b := randomMatrix(90, 110, rng)
	if !Mul(a, b).Equal(naiveMul(a, b), 1e-8) {
		t.Fatal("parallel Mul disagrees with naive product")
	}
}

// The reference kernels are one-term loops: one pass over the destination
// row per multiply-add (or one accumulator per dot product), skipping
// exactly the zero coefficients the fused kernels skip. The fused kernels
// must reproduce them bit for bit.

func refMulInto(c, a, b *Matrix) {
	k, n := a.Cols, b.Cols
	c.Zero()
	for i := 0; i < a.Rows; i++ {
		ci := c.Data[i*n : i*n+n]
		ai := a.Data[i*k : i*k+k]
		for l, av := range ai {
			if av == 0 {
				continue
			}
			bl := b.Data[l*n : l*n+n]
			for j, bv := range bl {
				ci[j] += av * bv
			}
		}
	}
}

func refMulATAccum(c, a, b *Matrix) {
	k, n := a.Cols, b.Cols
	for l := 0; l < k; l++ {
		cl := c.Data[l*n : l*n+n]
		for i := 0; i < a.Rows; i++ {
			av := a.Data[i*k+l]
			if av == 0 {
				continue
			}
			bi := b.Data[i*n : i*n+n]
			for j, bv := range bi {
				cl[j] += av * bv
			}
		}
	}
}

func refMulBTInto(c, a, b *Matrix) {
	k := a.Cols
	for i := 0; i < a.Rows; i++ {
		ai := a.Data[i*k : i*k+k]
		ci := c.Data[i*c.Cols : i*c.Cols+c.Cols]
		for j := 0; j < b.Rows; j++ {
			bj := b.Data[j*k : j*k+k]
			var s float64
			for l, av := range ai {
				s += av * bj[l]
			}
			ci[j] = s
		}
	}
}

// kernelOperand returns an r×c matrix of normal draws salted with the
// entries that decide how the fused kernels group their terms: isolated
// +0 and -0 entries and all-zero rows. With inf set it also plants rare
// ±Inf entries, so a zero coefficient that a kernel applied instead of
// skipping would leave a NaN (0·Inf) rather than vanish into a sum.
func kernelOperand(r, c int, inf bool, rng *rand.Rand) *Matrix {
	m := New(r, c)
	for i := 0; i < r; i++ {
		row := m.Row(i)
		if rng.Intn(8) == 0 {
			if rng.Intn(2) == 0 {
				for j := range row {
					row[j] = math.Copysign(0, -1)
				}
			}
			continue
		}
		for j := range row {
			switch u := rng.Float64(); {
			case u < 0.2:
			case u < 0.3:
				row[j] = math.Copysign(0, -1)
			case inf && u < 0.32:
				row[j] = math.Inf(1 - 2*rng.Intn(2))
			default:
				row[j] = rng.NormFloat64()
			}
		}
	}
	return m
}

// firstBitDiff returns the index of the first entry where got and want
// differ in any bit, or -1 when they are identical.
func firstBitDiff(got, want *Matrix) int {
	for i, v := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
			return i
		}
	}
	return -1
}

// TestKernelsBitIdenticalToReference checks MulInto, MulATAccum and
// MulBTInto against the one-term reference loops, comparing the bits of
// every entry. Inner dimensions cover every residue mod 4, both at toy
// sizes and past par.For's fan-out threshold, so the four-term groups,
// their one-term tails and the chunk boundaries of 1, 2, 3 and 8 workers
// all meet the zero entries; MulATAccum accumulates into a non-zero c that
// holds -0 entries, and the last shape spans two MulBTInto tiles.
func TestKernelsBitIdenticalToReference(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {3, 2, 5}, {4, 3, 7}, {5, 4, 1}, {2, 5, 6}, {7, 6, 3}, {6, 7, 9}, {9, 8, 4},
		{70, 36, 50}, {65, 37, 45}, {60, 38, 55}, {75, 39, 48}, {30, 101, 170},
	}
	for _, sh := range shapes {
		for seed := int64(0); seed < 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			a := kernelOperand(sh.m, sh.k, false, rng)
			b := kernelOperand(sh.k, sh.n, true, rng)  // a·b
			bt := kernelOperand(sh.n, sh.k, true, rng) // a·btᵀ
			bm := kernelOperand(sh.m, sh.n, true, rng) // c + aᵀ·bm
			overwritten := New(sh.m, sh.n)
			overwritten.Fill(math.NaN())
			for _, kc := range []struct {
				name string
				c    *Matrix // initial contents of c
				run  func(c *Matrix, workers int)
				ref  func(c *Matrix)
			}{
				{"MulInto", overwritten,
					func(c *Matrix, w int) { MulInto(c, a, b, w) }, func(c *Matrix) { refMulInto(c, a, b) }},
				{"MulATAccum", kernelOperand(sh.k, sh.n, false, rng),
					func(c *Matrix, w int) { MulATAccum(c, a, bm, w) }, func(c *Matrix) { refMulATAccum(c, a, bm) }},
				{"MulBTInto", overwritten,
					func(c *Matrix, w int) { MulBTInto(c, a, bt, w) }, func(c *Matrix) { refMulBTInto(c, a, bt) }},
			} {
				want := kc.c.Clone()
				kc.ref(want)
				for _, w := range []int{1, 2, 3, 8} {
					got := kc.c.Clone()
					kc.run(got, w)
					if i := firstBitDiff(got, want); i >= 0 {
						t.Fatalf("%s %v seed %d workers %d: entry %d = %v, want %v",
							kc.name, sh, seed, w, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}

func TestMulDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	Mul(New(2, 3), New(2, 3))
}

func TestMulIntoReusesBuffer(t *testing.T) {
	a := FromRows([][]float64{{1, 0}, {0, 1}})
	b := FromRows([][]float64{{2, 3}, {4, 5}})
	c := New(2, 2)
	c.Fill(99) // stale values must be overwritten
	MulInto(c, a, b, 0)
	if !c.Equal(b, 1e-12) {
		t.Fatalf("MulInto = %v, want %v", c, b)
	}
}

func TestMulBTIntoWorkerCountsAgree(t *testing.T) {
	// The cache-blocked kernel must produce bit-identical results for
	// every worker count — this is what makes Config.Workers a pure
	// performance knob.
	rng := rand.New(rand.NewSource(11))
	a := randomMatrix(333, 48, rng)
	b := randomMatrix(257, 48, rng)
	want := New(a.Rows, b.Rows)
	MulBTInto(want, a, b, 1)
	for _, w := range []int{2, 3, 8} {
		got := New(a.Rows, b.Rows)
		got.Fill(-1)
		MulBTInto(got, a, b, w)
		if !got.Equal(want, 0) {
			t.Fatalf("MulBTInto with %d workers diverged", w)
		}
	}
}

func TestMulATAccum(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randomMatrix(40, 7, rng)
	b := randomMatrix(40, 9, rng)
	c := randomMatrix(7, 9, rng)
	want := c.Clone()
	want.Add(MulAT(a, b))
	MulATAccum(c, a, b, 0)
	if !c.Equal(want, 1e-12) {
		t.Fatal("MulATAccum != c + MulAT(a,b)")
	}
}

func TestTransposeInto(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	// Dimensions straddling the tile size exercise the partial-tile edges.
	for _, dims := range [][2]int{{3, 5}, {64, 64}, {65, 63}, {1, 200}, {130, 70}} {
		m := randomMatrix(dims[0], dims[1], rng)
		tr := m.T()
		for i := 0; i < m.Rows; i++ {
			for j := 0; j < m.Cols; j++ {
				if tr.At(j, i) != m.At(i, j) {
					t.Fatalf("%dx%d transpose wrong at (%d,%d)", dims[0], dims[1], i, j)
				}
			}
		}
	}
}

func BenchmarkMul256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randomMatrix(256, 256, rng)
	y := randomMatrix(256, 256, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(x, y)
	}
}

func BenchmarkMulBT256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randomMatrix(256, 64, rng)
	y := randomMatrix(256, 64, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulBT(x, y)
	}
}
