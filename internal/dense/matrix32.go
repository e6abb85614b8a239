// The float32 compute tier: a small mirror of the kernels on the
// post-training hot path (similarity projection, normalisation, row
// scans). Training stays float64 — Matrix32 exists for the fine-tuning
// stages, where embeddings are converted once at the training boundary
// and every further pass is memory-bandwidth-bound. Dot products
// accumulate in float64 so candidate rankings stay stable; only the
// stored values are half-width.
package dense

import (
	"fmt"
	"math"

	"github.com/htc-align/htc/internal/par"
)

// Matrix32 is a dense row-major matrix of float32 values — the reduced-
// precision sibling of Matrix. The zero value is not usable; construct
// with New32.
type Matrix32 struct {
	Rows, Cols int
	// Data holds the entries in row-major order: element (i, j) is
	// Data[i*Cols+j]. Exported so hot loops can index directly.
	Data []float32
}

// New32 returns a zeroed r×c float32 matrix.
func New32(r, c int) *Matrix32 {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("dense: negative dimension %dx%d", r, c))
	}
	return &Matrix32{Rows: r, Cols: c, Data: make([]float32, r*c)}
}

// Ensure32 returns m when it already has shape r×c, and a fresh zeroed
// matrix otherwise — the float32 form of Ensure. The returned matrix's
// contents are unspecified on reuse; use it as the destination of an
// Into kernel.
func Ensure32(m *Matrix32, r, c int) *Matrix32 {
	if m != nil && m.Rows == r && m.Cols == c {
		return m
	}
	return New32(r, c)
}

// Row returns row i as a slice sharing the matrix's backing storage.
func (m *Matrix32) Row(i int) []float32 { return m.Data[i*m.Cols : i*m.Cols+m.Cols] }

// At returns element (i, j).
func (m *Matrix32) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Zero sets every entry of m to zero.
func (m *Matrix32) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// MulBTInto32 computes c = a·bᵀ over float32 operands, overwriting c —
// the reduced-precision mirror of MulBTInto with the same cache blocking
// and the same sequential per-cell association. Every dot product
// accumulates in float64 and rounds once on store, so rankings derived
// from the scores are as stable as the float64 kernel's up to the final
// rounding, and results are bit-identical for every worker count.
func MulBTInto32(c, a, b *Matrix32, workers int) {
	if a.Cols != b.Cols || c.Rows != a.Rows || c.Cols != b.Rows {
		panic(fmt.Sprintf("dense: MulBTInto32 dimension mismatch c=%dx%d a=%dx%d b=%dx%d",
			c.Rows, c.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	k := a.Cols
	if k == 0 {
		c.Zero()
		return
	}
	// Half-width entries: the same byte budget as mulBTTile holds twice
	// the values, so twice the rows of b stay cache-resident per tile.
	tile := 2 * mulBTTile / k
	if tile < 8 {
		tile = 8
	}
	par.For(workers, a.Rows, b.Rows*k, func(start, end int) {
		for jt := 0; jt < b.Rows; jt += tile {
			jEnd := jt + tile
			if jEnd > b.Rows {
				jEnd = b.Rows
			}
			for i := start; i < end; i++ {
				ai := a.Data[i*k : i*k+k]
				ci := c.Data[i*c.Cols : i*c.Cols+c.Cols]
				for j := jt; j < jEnd; j++ {
					bj := b.Data[j*k : j*k+k]
					var s float64
					for l, av := range ai {
						s += float64(av) * float64(bj[l])
					}
					ci[j] = float32(s)
				}
			}
		}
	})
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

// CenterNormalizeRowsInto32 is the precision-tier boundary: one fused
// pass that centers and row-normalises float64 embeddings into a float32
// destination. All reductions (mean, sum of squares) run in float64;
// only the stores narrow. The sum of squares is taken over the values as
// stored — widened float32 — so each output row is unit-norm in its own
// representation. dst must have src's shape.
func CenterNormalizeRowsInto32(dst *Matrix32, src *Matrix) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic(fmt.Sprintf("dense: CenterNormalizeRowsInto32 shape mismatch %dx%d vs %dx%d",
			dst.Rows, dst.Cols, src.Rows, src.Cols))
	}
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
			out[j] = c
			s += float64(c) * float64(c)
		}
		if s < eps {
			continue
		}
		f := 1 / math.Sqrt(s)
		for j, v := range out {
			out[j] = float32(float64(v) * f)
		}
	}
}

// MulBTMixed32Into computes c = a·bᵀ for float32 rows a against float64
// rows b, into a float64 destination — the projection kernel of the ANN
// index's float32 tier, where the data rows are half-width but the
// hyperplanes (small, reused) stay float64. Same blocking and sequential
// association as MulBTInto.
func MulBTMixed32Into(c *Matrix, a *Matrix32, b *Matrix, workers int) {
	if a.Cols != b.Cols || c.Rows != a.Rows || c.Cols != b.Rows {
		panic(fmt.Sprintf("dense: MulBTMixed32Into dimension mismatch c=%dx%d a=%dx%d b=%dx%d",
			c.Rows, c.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	k := a.Cols
	if k == 0 {
		c.Zero()
		return
	}
	tile := mulBTTile / k
	if tile < 8 {
		tile = 8
	}
	par.For(workers, a.Rows, b.Rows*k, func(start, end int) {
		for jt := 0; jt < b.Rows; jt += tile {
			jEnd := jt + tile
			if jEnd > b.Rows {
				jEnd = b.Rows
			}
			for i := start; i < end; i++ {
				ai := a.Data[i*k : i*k+k]
				ci := c.Data[i*c.Cols : i*c.Cols+c.Cols]
				for j := jt; j < jEnd; j++ {
					bj := b.Data[j*k : j*k+k]
					var s float64
					for l, av := range ai {
						s += float64(av) * bj[l]
					}
					ci[j] = s
				}
			}
		}
	})
}
