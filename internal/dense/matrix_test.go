package dense

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func randomMatrix(r, c int, rng *rand.Rand) *Matrix {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 {
		t.Fatalf("shape = %dx%d, want 3x4", m.Rows, m.Cols)
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %v, want 0", i, v)
		}
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.At(2, 1) != 6 || m.At(0, 0) != 1 {
		t.Fatalf("FromRows content wrong: %v", m)
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestFromRowsEmpty(t *testing.T) {
	m := FromRows(nil)
	if m.Rows != 0 || m.Cols != 0 {
		t.Fatalf("empty FromRows = %dx%d", m.Rows, m.Cols)
	}
}

func TestIdentity(t *testing.T) {
	m := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if m.At(i, j) != want {
				t.Fatalf("I(%d,%d) = %v", i, j, m.At(i, j))
			}
		}
	}
}

func TestAtSetRow(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatalf("At after Set = %v", m.At(1, 2))
	}
	row := m.Row(1)
	row[0] = 5 // Row must alias backing storage.
	if m.At(1, 0) != 5 {
		t.Fatal("Row does not alias backing storage")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestAddSubScale(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{10, 20}, {30, 40}})
	a.Add(b)
	if a.At(1, 1) != 44 {
		t.Fatalf("Add: %v", a)
	}
	a.Sub(b)
	if a.At(1, 1) != 4 {
		t.Fatalf("Sub: %v", a)
	}
	a.Scale(2)
	if a.At(0, 1) != 4 {
		t.Fatalf("Scale: %v", a)
	}
	a.AddScaled(b, 0.5)
	if a.At(0, 0) != 2+5 {
		t.Fatalf("AddScaled: %v", a)
	}
}

func TestMulElemApply(t *testing.T) {
	a := FromRows([][]float64{{1, -2}, {3, -4}})
	b := FromRows([][]float64{{2, 2}, {2, 2}})
	a.MulElem(b)
	if a.At(1, 1) != -8 {
		t.Fatalf("MulElem: %v", a)
	}
	a.Apply(math.Abs)
	if a.At(1, 1) != 8 || a.At(0, 1) != 4 {
		t.Fatalf("Apply: %v", a)
	}
}

func TestTranspose(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.T()
	if at.Rows != 3 || at.Cols != 2 || at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("T: %v", at)
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomMatrix(1+rng.Intn(8), 1+rng.Intn(8), rng)
		return m.T().T().Equal(m, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDotAndNorms(t *testing.T) {
	a := FromRows([][]float64{{3, 4}})
	if a.FrobNorm() != 5 {
		t.Fatalf("FrobNorm = %v", a.FrobNorm())
	}
	if a.SumSquares() != 25 {
		t.Fatalf("SumSquares = %v", a.SumSquares())
	}
	b := FromRows([][]float64{{1, 2}})
	if a.Dot(b) != 11 {
		t.Fatalf("Dot = %v", a.Dot(b))
	}
	if a.MaxAbs() != 4 {
		t.Fatalf("MaxAbs = %v", a.MaxAbs())
	}
}

func TestEqualShapes(t *testing.T) {
	a := New(2, 2)
	b := New(2, 3)
	if a.Equal(b, 1) {
		t.Fatal("Equal must reject different shapes")
	}
}

func TestCopyFromAndFill(t *testing.T) {
	a := New(2, 2)
	b := FromRows([][]float64{{1, 2}, {3, 4}})
	a.CopyFrom(b)
	if !a.Equal(b, 0) {
		t.Fatal("CopyFrom mismatch")
	}
	a.Fill(7)
	if a.At(1, 0) != 7 {
		t.Fatal("Fill mismatch")
	}
	a.Zero()
	if a.MaxAbs() != 0 {
		t.Fatal("Zero mismatch")
	}
}

func TestCenterRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {10, 10, 10}})
	m.CenterRows()
	if !almostEqual(m.At(0, 0), -1, 1e-12) || !almostEqual(m.At(0, 2), 1, 1e-12) {
		t.Fatalf("CenterRows row0: %v", m.Row(0))
	}
	for j := 0; j < 3; j++ {
		if m.At(1, j) != 0 {
			t.Fatalf("CenterRows constant row: %v", m.Row(1))
		}
	}
}

func TestNormalizeRows(t *testing.T) {
	m := FromRows([][]float64{{3, 4}, {0, 0}})
	m.NormalizeRows()
	if !almostEqual(m.At(0, 0), 0.6, 1e-12) || !almostEqual(m.At(0, 1), 0.8, 1e-12) {
		t.Fatalf("NormalizeRows: %v", m.Row(0))
	}
	if m.At(1, 0) != 0 || m.At(1, 1) != 0 {
		t.Fatal("zero rows must stay zero")
	}
}

func TestArgmaxRows(t *testing.T) {
	m := FromRows([][]float64{{1, 9, 2}, {-5, -1, -9}})
	got := m.ArgmaxRows()
	if got[0] != 1 || got[1] != 1 {
		t.Fatalf("ArgmaxRows = %v", got)
	}
}

func TestXavierDeterministicAndBounded(t *testing.T) {
	a := Xavier(20, 30, rand.New(rand.NewSource(1)))
	b := Xavier(20, 30, rand.New(rand.NewSource(1)))
	if !a.Equal(b, 0) {
		t.Fatal("Xavier not deterministic for equal seeds")
	}
	bound := math.Sqrt(6.0 / 50.0)
	if a.MaxAbs() > bound {
		t.Fatalf("Xavier exceeds bound: %v > %v", a.MaxAbs(), bound)
	}
	if a.MaxAbs() == 0 {
		t.Fatal("Xavier produced all zeros")
	}
}

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

// TestCenterNormalizeRowsInto32 checks the float32-tier pass against a
// float32 reference: each stored value, held in float64, must equal the
// reference's float32 value widened, computed through the same rounding
// (center rounded to float32, norm accumulated over the rounded values,
// output rounded again).
func TestCenterNormalizeRowsInto32(t *testing.T) {
	src := seededMatrix(41, 9, 4)
	got := New(41, 9)
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
				if out[j] != float64(c[j]) {
					t.Fatalf("zero-variance row %d col %d: got %v, want centered %v", i, j, out[j], c[j])
				}
			}
			continue
		}
		f := 1 / math.Sqrt(s)
		for j := range out {
			want := float32(float64(c[j]) * f)
			if out[j] != float64(want) {
				t.Fatalf("row %d col %d: got %v, want %v", i, j, out[j], want)
			}
		}
	}
}
