package dense

import (
	"fmt"

	"github.com/htc-align/htc/internal/par"
)

// Mul returns the matrix product a·b. It panics if the inner dimensions do
// not match. The computation is parallelised across rows of the result.
func Mul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("dense: Mul dimension mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := New(a.Rows, b.Cols)
	MulInto(c, a, b, 0)
	return c
}

// MulInto computes c = a·b, overwriting c, fanning out across at most
// `workers` goroutines (≤ 0 = GOMAXPROCS). The shapes must be compatible.
// Each row of c sums the rows of b scaled by the non-zero entries of the
// matching row of a, in column order, through a RowAccum: four scaled rows
// per pass over the row of c, rounding exactly as one pass per row would.
// Rows of c are written by exactly one goroutine each, so the result is
// bit-identical for every worker count.
func MulInto(c, a, b *Matrix, workers int) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("dense: MulInto dimension mismatch c=%dx%d a=%dx%d b=%dx%d",
			c.Rows, c.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	k, n := a.Cols, b.Cols
	c.Zero()
	par.For(workers, a.Rows, k*n, func(start, end int) {
		var acc RowAccum
		for i := start; i < end; i++ {
			acc.Reset(c.Data[i*n : i*n+n])
			for l, av := range a.Data[i*k : i*k+k] {
				if av != 0 {
					acc.Add(av, b.Data[l*n:l*n+n])
				}
			}
			acc.Flush()
		}
	})
}

// MulAT returns aᵀ·b for a (m×k) and b (m×n), producing a k×n matrix.
func MulAT(a, b *Matrix) *Matrix {
	c := New(a.Cols, b.Cols)
	MulATInto(c, a, b, 0)
	return c
}

// MulATInto computes c = aᵀ·b, overwriting c.
func MulATInto(c, a, b *Matrix, workers int) {
	c.Zero()
	MulATAccum(c, a, b, workers)
}

// MulATAccum accumulates c += aᵀ·b for a (m×k) and b (m×n) without any
// temporary — the gradient kernel of training, where every layer adds its
// weight gradient into a shared buffer.
//
// Parallelisation is over output rows. Row l of c walks column l of a and
// adds the rows of b scaled by its non-zero entries, in row order, through
// a RowAccum: four rows of b per pass over the row of c, rounding exactly
// as one pass per row would. Each row of c is written by one goroutine, so
// the result is race-free and bit-identical for every worker count.
func MulATAccum(c, a, b *Matrix, workers int) {
	if a.Rows != b.Rows || c.Rows != a.Cols || c.Cols != b.Cols {
		panic(fmt.Sprintf("dense: MulATAccum dimension mismatch c=%dx%d a=%dx%d ᵀ· b=%dx%d",
			c.Rows, c.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	k, n := a.Cols, b.Cols
	par.For(workers, k, a.Rows*n, func(start, end int) {
		var acc RowAccum
		for l := start; l < end; l++ {
			acc.Reset(c.Data[l*n : l*n+n])
			for i := 0; i < a.Rows; i++ {
				if av := a.Data[i*k+l]; av != 0 {
					acc.Add(av, b.Data[i*n:i*n+n])
				}
			}
			acc.Flush()
		}
	})
}

// MulBT returns a·bᵀ for a (m×k) and b (n×k), producing an m×n matrix.
// Both operands are traversed along rows, which makes this the preferred
// kernel for similarity matrices between embedding sets.
func MulBT(a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("dense: MulBT dimension mismatch %dx%d · %dx%dᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := New(a.Rows, b.Rows)
	MulBTInto(c, a, b, 0)
	return c
}

// mulBTTile bounds the number of b entries (rows × k) held per cache
// block: 16384 float64s ≈ 128 KiB, sized to sit in L2 while a row of a
// stays in L1.
const mulBTTile = 1 << 14

// MulBTInto computes c = a·bᵀ, overwriting c. The kernel is cache-blocked:
// rows of b are processed in tiles small enough to stay resident in cache
// while the worker streams its rows of a over them, so b is fetched from
// memory once per tile instead of once per row of a. Within a tile each row
// of a is dotted with four rows of b at a time, in four independent
// accumulators, so the additions of one dot product do not wait on those
// of another. Every c entry is one sequential dot product in column
// order, so results are bit-identical for every worker count and tile
// size.
func MulBTInto(c, a, b *Matrix, workers int) {
	if a.Cols != b.Cols || c.Rows != a.Rows || c.Cols != b.Rows {
		panic(fmt.Sprintf("dense: MulBTInto dimension mismatch c=%dx%d a=%dx%d b=%dx%d",
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
				j := jt
				for ; j+4 <= jEnd; j += 4 {
					ci[j], ci[j+1], ci[j+2], ci[j+3] = Dot4(ai,
						b.Data[j*k:j*k+k], b.Data[(j+1)*k:(j+1)*k+k],
						b.Data[(j+2)*k:(j+2)*k+k], b.Data[(j+3)*k:(j+3)*k+k])
				}
				for ; j < jEnd; j++ {
					ci[j] = Dot(ai, b.Data[j*k:j*k+k])
				}
			}
		}
	})
}

// Dot returns Σ a[l]·b[l], summed in l order: the bits of every cell of
// MulBTInto.
func Dot(a, b []float64) float64 {
	b = b[:len(a)]
	var s float64
	for l, av := range a {
		s += av * b[l]
	}
	return s
}

// Dot4 returns the dot products of a with b0, b1, b2 and b3, each summed
// in l order in its own accumulator, so each has Dot's bits.
func Dot4(a, b0, b1, b2, b3 []float64) (s0, s1, s2, s3 float64) {
	b0, b1, b2, b3 = b0[:len(a)], b1[:len(a)], b2[:len(a)], b3[:len(a)]
	for l, av := range a {
		s0 += av * b0[l]
		s1 += av * b1[l]
		s2 += av * b2[l]
		s3 += av * b3[l]
	}
	return s0, s1, s2, s3
}

// RowAccum adds scaled source rows into one destination row, c += x·r,
// for the row-oriented product kernels (MulInto, MulATAccum and the sparse
// package's CSR·dense product). It queues up to four (x, r) terms and
// applies them in one pass over c,
//
//	c[j] = c[j] + x0*r0[j] + x1*r1[j] + x2*r2[j] + x3*r3[j]
//
// so c is loaded and stored once per four multiply-adds instead of once
// per multiply-add. Go evaluates the sum left to right, so every entry is
// rounded exactly as by four sequential c[j] += x*r[j] updates; leftover
// terms are applied one pass each. Terms apply in the order they are
// added. Use one RowAccum per goroutine; Reset it onto each destination
// row and Flush it before reading the row.
type RowAccum struct {
	c []float64
	x [4]float64
	r [4][]float64
	n int
}

// Reset points the accumulator at destination row c, dropping any terms
// not yet flushed.
func (acc *RowAccum) Reset(c []float64) {
	acc.c, acc.n = c, 0
}

// Add queues c += x·r, applying the queue once it holds four terms. r must
// have at least len(c) entries; only the first len(c) are read.
func (acc *RowAccum) Add(x float64, r []float64) {
	acc.x[acc.n], acc.r[acc.n] = x, r
	if acc.n++; acc.n == 4 {
		addMul4(acc.c, acc.x[0], acc.x[1], acc.x[2], acc.x[3], acc.r[0], acc.r[1], acc.r[2], acc.r[3])
		acc.n = 0
	}
}

// Flush applies the queued terms, one pass over c each.
func (acc *RowAccum) Flush() {
	for t := 0; t < acc.n; t++ {
		addMul(acc.c, acc.x[t], acc.r[t])
	}
	acc.n = 0
}

// addMul computes c[j] += x*r[j].
func addMul(c []float64, x float64, r []float64) {
	r = r[:len(c)]
	for j, cv := range c {
		c[j] = cv + x*r[j]
	}
}

// addMul4 computes c[j] += x0*r0[j], then x1*r1[j], x2*r2[j] and x3*r3[j],
// in one pass over c.
func addMul4(c []float64, x0, x1, x2, x3 float64, r0, r1, r2, r3 []float64) {
	r0, r1, r2, r3 = r0[:len(c)], r1[:len(c)], r2[:len(c)], r3[:len(c)]
	for j, cv := range c {
		c[j] = cv + x0*r0[j] + x1*r1[j] + x2*r2[j] + x3*r3[j]
	}
}
