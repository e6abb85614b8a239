package dense

import (
	"math"
	"math/rand"
	"testing"
)

// seededMatrix fills an r×c matrix with unit gaussians, with a few rows
// made exactly constant so the zero-variance skip path is exercised.
func seededMatrix(r, c int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	for i := 0; i < r; i += 7 {
		row := m.Row(i)
		for j := range row {
			row[j] = 3.25
		}
	}
	return m
}

// TestCenterNormalizeFusedBitIdentical: the fused center+normalize pass
// must reproduce the separate CopyFrom → CenterRows → NormalizeRows
// sequence bit for bit — it is what lets the fusion replace the old
// three-pass code on the default float64 path without perturbing the
// pipeline's bit-identity contract.
func TestCenterNormalizeFusedBitIdentical(t *testing.T) {
	for _, tc := range []struct{ r, c int }{
		{1, 1}, {3, 0}, {7, 5}, {40, 16}, {129, 33},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			src := seededMatrix(tc.r, tc.c, seed)
			want := New(tc.r, tc.c)
			want.CopyFrom(src)
			want.CenterRows()
			want.NormalizeRows()
			got := New(tc.r, tc.c)
			CenterNormalizeRowsInto(got, src)
			for i, v := range got.Data {
				if v != want.Data[i] {
					t.Fatalf("r=%d c=%d seed=%d: fused[%d] = %v, separate = %v",
						tc.r, tc.c, seed, i, v, want.Data[i])
				}
			}
		}
	}
}

// TestCenterNormalizeRowsInto32 checks the float32 variant against the
// float64 fused pass: each stored value must equal the float64 result
// computed through the same store-then-widen rounding (center rounded to
// float32, norm accumulated over the rounded values).
func TestCenterNormalizeRowsInto32(t *testing.T) {
	src := seededMatrix(41, 9, 4)
	got := New32(41, 9)
	CenterNormalizeRowsInto32(got, src)
	for i := 0; i < src.Rows; i++ {
		row := src.Row(i)
		var mean float64
		for _, v := range row {
			mean += v
		}
		mean /= float64(src.Cols)
		c := make([]float32, src.Cols)
		var s float64
		for j, v := range row {
			c[j] = float32(v - mean)
			s += float64(c[j]) * float64(c[j])
		}
		out := got.Row(i)
		if s < 1e-12 {
			for j := range out {
				if out[j] != c[j] {
					t.Fatalf("zero-variance row %d col %d: got %v, want centered %v", i, j, out[j], c[j])
				}
			}
			continue
		}
		f := 1 / math.Sqrt(s)
		for j := range out {
			want := float32(float64(c[j]) * f)
			if out[j] != want {
				t.Fatalf("row %d col %d: got %v, want %v", i, j, out[j], want)
			}
		}
	}
}

// TestMulBTInto32MatchesNaive: the float32 kernel must equal the naive
// sequential float64-accumulated product rounded to float32, at every
// worker count (the bit-identity-across-workers contract of the f64
// kernel, carried to the f32 tier).
func TestMulBTInto32MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	fill := func(r, c int) *Matrix32 {
		m := New32(r, c)
		for i := range m.Data {
			m.Data[i] = float32(rng.NormFloat64())
		}
		return m
	}
	for _, tc := range []struct{ m, n, k int }{
		{1, 1, 1}, {5, 7, 3}, {17, 13, 0}, {33, 29, 40},
	} {
		a, b := fill(tc.m, tc.k), fill(tc.n, tc.k)
		want := New32(tc.m, tc.n)
		for i := 0; i < tc.m; i++ {
			for j := 0; j < tc.n; j++ {
				var s float64
				for l := 0; l < tc.k; l++ {
					s += float64(a.At(i, l)) * float64(b.At(j, l))
				}
				want.Data[i*tc.n+j] = float32(s)
			}
		}
		for _, workers := range []int{1, 2, 5} {
			got := New32(tc.m, tc.n)
			MulBTInto32(got, a, b, workers)
			for i, v := range got.Data {
				if v != want.Data[i] {
					t.Fatalf("m=%d n=%d k=%d workers=%d: cell %d = %v, want %v",
						tc.m, tc.n, tc.k, workers, i, v, want.Data[i])
				}
			}
		}
	}
}

// TestMulBTMixed32Into: the mixed-precision projection kernel (float32
// rows against float64 planes, float64 result) matches the naive product.
func TestMulBTMixed32Into(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := New32(23, 11)
	for i := range a.Data {
		a.Data[i] = float32(rng.NormFloat64())
	}
	b := New(6, 11)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	want := New(23, 6)
	for i := 0; i < 23; i++ {
		for j := 0; j < 6; j++ {
			var s float64
			for l := 0; l < 11; l++ {
				s += float64(a.At(i, l)) * b.At(j, l)
			}
			want.Data[i*6+j] = s
		}
	}
	for _, workers := range []int{1, 3} {
		got := New(23, 6)
		MulBTMixed32Into(got, a, b, workers)
		for i, v := range got.Data {
			if v != want.Data[i] {
				t.Fatalf("workers=%d: cell %d = %v, want %v", workers, i, v, want.Data[i])
			}
		}
	}
}

// TestMatrix32Basics covers the small-surface helpers: Ensure32 reuse,
// Zero and the shape panic of the kernel.
func TestMatrix32Basics(t *testing.T) {
	m := New32(3, 4)
	if got := Ensure32(m, 3, 4); got != m {
		t.Fatal("Ensure32 reallocated a correctly-shaped matrix")
	}
	if got := Ensure32(m, 5, 2); got == m || got.Rows != 5 || got.Cols != 2 {
		t.Fatal("Ensure32 failed to reshape")
	}
	dst := New32(2, 2)
	dst.Data = []float32{1, 2, 3, 4}
	dst.Zero()
	if dst.At(0, 0) != 0 || dst.At(1, 1) != 0 {
		t.Fatal("Zero left residue")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MulBTInto32 accepted mismatched shapes")
		}
	}()
	MulBTInto32(New32(2, 3), New32(2, 4), New32(3, 5), 1)
}
