package dense

import (
	"math"
	"math/rand"
)

// CenterRows subtracts each row's mean from its entries, in place.
// Row-centred matrices turn inner products into (unnormalised) covariance,
// the first step of the Pearson correlation used by LISI.
func (m *Matrix) CenterRows() {
	if m.Cols == 0 {
		return
	}
	inv := 1 / float64(m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var mean float64
		for _, v := range row {
			mean += v
		}
		mean *= inv
		for j := range row {
			row[j] -= mean
		}
	}
}

// NormalizeRows scales each row to unit L2 norm, in place. Rows with norm
// below eps are left untouched (they would otherwise blow up to NaN).
func (m *Matrix) NormalizeRows() {
	const eps = 1e-12
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s float64
		for _, v := range row {
			s += v * v
		}
		if s < eps {
			continue
		}
		inv := 1 / math.Sqrt(s)
		for j := range row {
			row[j] *= inv
		}
	}
}

// ArgmaxRows returns, for each row, the column index of its maximum entry.
// Empty matrices return an empty slice; ties resolve to the lowest index.
func (m *Matrix) ArgmaxRows() []int {
	out := make([]int, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		best, bestV := 0, math.Inf(-1)
		for j, v := range row {
			if v > bestV {
				best, bestV = j, v
			}
		}
		out[i] = best
	}
	return out
}

// Xavier returns an r×c matrix with entries drawn uniformly from
// [−b, b] where b = sqrt(6/(r+c)), the Glorot/Xavier initialisation used
// for the GCN encoder weights. The rng makes initialisation reproducible.
func Xavier(r, c int, rng *rand.Rand) *Matrix {
	m := New(r, c)
	bound := math.Sqrt(6 / float64(r+c))
	for i := range m.Data {
		m.Data[i] = (2*rng.Float64() - 1) * bound
	}
	return m
}

// CenterNormalizeRowsInto fuses CopyFrom + CenterRows + NormalizeRows
// into one pass per row: src is read once, each row's mean is removed,
// and the centered row is scaled to unit L2 norm while still
// cache-resident. The arithmetic — mean accumulation order, the stored
// centered values, the sum of squares over those stored values, the
// eps = 1e-12 skip — is exactly the three-pass sequence's, so the fused
// kernel is bit-identical to it (locked by TestCenterNormalizeFusedBitIdentical).
// src is left untouched; dst must have src's shape.
func CenterNormalizeRowsInto(dst, src *Matrix) {
	dst.mustSameShape(src, "CenterNormalizeRowsInto")
	if src.Cols == 0 {
		return
	}
	const eps = 1e-12
	inv := 1 / float64(src.Cols)
	for i := 0; i < src.Rows; i++ {
		row := src.Row(i)
		out := dst.Row(i)
		var mean float64
		for _, v := range row {
			mean += v
		}
		mean *= inv
		var s float64
		for j, v := range row {
			c := v - mean
			out[j] = c
			s += c * c
		}
		if s < eps {
			continue
		}
		f := 1 / math.Sqrt(s)
		for j := range out {
			out[j] *= f
		}
	}
}

// CenterNormalizeRowsInto32 is CenterNormalizeRowsInto on the float32
// precision tier: each centered value is rounded to float32 before it is
// stored and squared, and each output is rounded again, so dst holds
// float32 values in float64 storage and each row is unit-norm in that
// representation. The mean and the sum of squares accumulate in
// float64. dst must have src's shape.
func CenterNormalizeRowsInto32(dst, src *Matrix) {
	dst.mustSameShape(src, "CenterNormalizeRowsInto32")
	if src.Cols == 0 {
		return
	}
	const eps = 1e-12
	inv := 1 / float64(src.Cols)
	for i := 0; i < src.Rows; i++ {
		row := src.Row(i)
		out := dst.Row(i)
		var mean float64
		for _, v := range row {
			mean += v
		}
		mean *= inv
		var s float64
		for j, v := range row {
			c := float32(v - mean)
			out[j] = float64(c)
			s += float64(c) * float64(c)
		}
		if s < eps {
			continue
		}
		f := 1 / math.Sqrt(s)
		for j, v := range out {
			out[j] = float64(float32(v * f))
		}
	}
}
