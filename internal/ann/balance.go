// Data-aware balancing of the LSH hash: the centering + whitening
// transform frozen at the first Fit, and the hierarchical re-hash of
// buckets that still come out oversized. Both exist for the same failure
// mode — GCN embeddings on low-signal graphs collapse toward a dominant
// direction, so raw sign-random-projection bits all follow that
// direction and a handful of hot buckets swallow most rows.
package ann

import (
	"math"
	"math/rand"

	"github.com/htc-align/htc/internal/dense"
)

// annSampleTarget bounds the rows used to estimate the data mean and
// covariance: a deterministic stride sample of ~2048 rows, so the
// transform costs O(sample·d²) regardless of n.
const annSampleTarget = 2048

const (
	// rehashFactor is the `cap` of the re-hash threshold cap·n/2^bits.
	// SRP bucket sizes are heavy-tailed even on isotropic data (codes of
	// nearby regions are correlated), so the factor is deliberately
	// high: only buckets a collapse actually inflated get a second-level
	// table — re-hashing the ordinary tail would prune true neighbours
	// for no balance gain.
	rehashFactor = 8
	// rehashMinRows floors the threshold so small inputs don't re-hash
	// ordinarily lumpy buckets.
	rehashMinRows = 64
	// maxSubBits caps a second-level table's width.
	maxSubBits = 12
)

// buildTransform freezes the index's hash geometry against the first
// fitted matrix: hyperplanes G are drawn from the seed, and — unless
// Params.Unbalanced — rotated through a whitening transform T of the
// sampled data covariance, with per-bit offsets μ·w̃ centering every
// hyperplane on the data mean. In the whitened view each effective
// hyperplane sees equalized variance in every direction, so each bit
// splits the rows roughly in half even under a dominant direction.
// rowAt yields row i widened to float64 — the data matrix's own rows on
// the float64 tier, a conversion through a reused buffer on the float32
// tier — so the frozen geometry is tier-independent float64 math.
func (ix *Index) buildTransform(d, rows int, rowAt func(int) []float64) {
	g := dense.New(ix.p.Bits, d)
	rng := rand.New(rand.NewSource(ix.p.Seed))
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	ix.bias = resize(ix.bias, ix.p.Bits)
	if ix.p.Unbalanced {
		ix.planes = g
		ix.xform = nil
		for j := range ix.bias {
			ix.bias[j] = 0
		}
		return
	}
	mu, t := whiteningTransform(rows, d, rowAt)
	ix.xform = t
	ix.planes = dense.New(ix.p.Bits, d)
	// T is symmetric, so G·Tᵀ = G·T: each effective plane w̃_j = T·g_j.
	dense.MulBTInto(ix.planes, g, t, 1)
	for j := 0; j < ix.p.Bits; j++ {
		ix.bias[j] = dot(mu, ix.planes.Row(j))
	}
}

// whiteningTransform estimates the data mean μ and a partial ZCA
// whitening transform T = V·diag(1/√(max(λ, λmed)+δ))·Vᵀ from a
// deterministic stride sample of the rows. Eigenvalues are floored at
// the spectrum's median before inversion: directions carrying more than
// their share of variance are shrunk down to the median's scale, the
// rest are left alone — equalize, never amplify. On a collapsed
// spectrum the dominant direction is flattened into the residual bulk
// (balancing the bits); on an already-isotropic spectrum T reduces to a
// harmless global scale, so the hash geometry the re-rank scores
// against is not distorted. Amplifying near-null directions — which
// would scramble the codes of near-identical rows with estimation noise
// — can never happen under the floor.
func whiteningTransform(rows, d int, rowAt func(int) []float64) (mu []float64, t *dense.Matrix) {
	stride := rows / annSampleTarget
	if stride < 1 {
		stride = 1
	}
	mu = make([]float64, d)
	cnt := 0
	for i := 0; i < rows; i += stride {
		for j, v := range rowAt(i) {
			mu[j] += v
		}
		cnt++
	}
	inv := 1 / float64(cnt)
	for j := range mu {
		mu[j] *= inv
	}
	cov := dense.New(d, d)
	for i := 0; i < rows; i += stride {
		row := rowAt(i)
		for a := 0; a < d; a++ {
			da := row[a] - mu[a]
			cr := cov.Row(a)
			for b := a; b < d; b++ {
				cr[b] += da * (row[b] - mu[b])
			}
		}
	}
	for a := 0; a < d; a++ {
		for b := a; b < d; b++ {
			v := cov.At(a, b) * inv
			cov.Set(a, b, v)
			cov.Set(b, a, v)
		}
	}
	vals, vecs := dense.SymEigen(cov)
	var lmax float64
	if len(vals) > 0 && vals[0] > 0 {
		lmax = vals[0]
	}
	// SymEigen orders eigenvalues descending, so the median floor is the
	// middle entry (clamped non-negative); δ guards a fully degenerate
	// spectrum.
	lmed := vals[d/2]
	if lmed < 0 {
		lmed = 0
	}
	delta := 1e-9*lmax + 1e-12
	scaled := dense.New(d, d)
	for j := 0; j < d; j++ {
		l := vals[j]
		if l < lmed {
			l = lmed
		}
		f := 1 / math.Sqrt(l+delta)
		for i := 0; i < d; i++ {
			scaled.Set(i, j, vecs.At(i, j)*f)
		}
	}
	return mu, dense.MulBT(scaled, vecs)
}

// subTable is the second-level hash of one re-hashed oversized bucket: a
// fresh, locally centered plane set splitting the bucket's segment of
// the order array into 2^bits contiguous sub-buckets, with start offsets
// relative to the segment.
type subTable struct {
	bits   int
	planes *dense.Matrix
	bias   []float64
	start  []int32
}

// buildSubs re-hashes every bucket whose occupancy exceeds
// max(rehashMinRows, rehashFactor·n/2^Bits) one level deeper: a fresh
// seed-derived plane set (whitened with the frozen transform, centered
// on the bucket's own mean) splits the bucket into sub-buckets sized
// back toward the mean occupancy, and the bucket's segment of the order
// array is regrouped in place. Queries then gather only their matching
// sub-bucket and defer the rest (see gather).
func (ix *Index) buildSubs() {
	nb := 1 << ix.p.Bits
	ix.subOf = resize(ix.subOf, nb)
	for i := range ix.subOf[:nb] {
		ix.subOf[i] = -1
	}
	ix.subs = ix.subs[:0]
	ix.stats.Rehashed = 0
	if ix.p.Unbalanced {
		return
	}
	mean := ix.n >> uint(ix.p.Bits)
	if mean < 1 {
		mean = 1
	}
	threshold := rehashFactor * mean
	if threshold < rehashMinRows {
		threshold = rehashMinRows
	}
	// A probed re-hashed bucket contributes at most as many rows as the
	// largest allowed ordinary bucket, gathered in sub-probe margin
	// order (see gather).
	ix.subBudget = threshold
	var d int
	if ix.data32 != nil {
		d = ix.data32.Cols
	} else {
		d = ix.data.Cols
	}
	ix.subMean = resize(ix.subMean, d)
	for b := 0; b < nb; b++ {
		lo, hi := int(ix.start[b]), int(ix.start[b+1])
		size := hi - lo
		if size <= threshold {
			continue
		}
		sb := 1
		for sb < maxSubBits && size > mean<<uint(sb) {
			sb++
		}
		st := subTable{bits: sb, planes: dense.New(sb, d), bias: make([]float64, sb)}
		rng := rand.New(rand.NewSource(ix.p.Seed ^ (int64(b)+1)*0x2545f4914f6cdd1d))
		for i := range st.planes.Data {
			st.planes.Data[i] = rng.NormFloat64()
		}
		if ix.xform != nil {
			w := dense.New(sb, d)
			dense.MulBTInto(w, st.planes, ix.xform, 1)
			st.planes = w
		}
		// Center the sub-split on the bucket's own mean: rows landed here
		// because they look alike globally, so only local contrast splits
		// them.
		seg := ix.order[lo:hi]
		muB := ix.subMean
		for j := range muB {
			muB[j] = 0
		}
		if ix.data32 != nil {
			for _, r := range seg {
				for j, v := range ix.data32.Row(int(r)) {
					muB[j] += float64(v)
				}
			}
		} else {
			for _, r := range seg {
				for j, v := range ix.data.Row(int(r)) {
					muB[j] += v
				}
			}
		}
		for j := range muB {
			muB[j] /= float64(size)
		}
		for j := 0; j < sb; j++ {
			st.bias[j] = dot(muB, st.planes.Row(j))
		}
		// Stable counting sort of the segment by sub-code, in place.
		nsb := 1 << uint(sb)
		st.start = make([]int32, nsb+1)
		ix.subCode = resize(ix.subCode, size)
		for si, r := range seg {
			var c uint32
			if ix.data32 != nil {
				row := ix.data32.Row(int(r))
				for j := 0; j < sb; j++ {
					if dot32(row, st.planes.Row(j))-st.bias[j] >= 0 {
						c |= 1 << uint(j)
					}
				}
			} else {
				row := ix.data.Row(int(r))
				for j := 0; j < sb; j++ {
					if dot(row, st.planes.Row(j))-st.bias[j] >= 0 {
						c |= 1 << uint(j)
					}
				}
			}
			ix.subCode[si] = c
			st.start[c+1]++
		}
		for c := 0; c < nsb; c++ {
			st.start[c+1] += st.start[c]
		}
		ix.subTmp = resize(ix.subTmp, size)
		ix.subCursor = resize(ix.subCursor, nsb)
		copy(ix.subCursor, st.start[:nsb])
		for si, r := range seg {
			c := ix.subCode[si]
			ix.subTmp[ix.subCursor[c]] = r
			ix.subCursor[c]++
		}
		copy(seg, ix.subTmp[:size])
		ix.subOf[b] = int32(len(ix.subs))
		ix.subs = append(ix.subs, st)
		ix.stats.Rehashed++
	}
}
