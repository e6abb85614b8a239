// Data-aware balancing of the LSH hash: the centering + whitening
// transform frozen at the first Fit, and the hierarchical re-hash of
// buckets that still come out oversized. Both exist for the same failure
// mode — GCN embeddings on low-signal graphs collapse toward a dominant
// direction, so raw sign-random-projection bits all follow that
// direction and a handful of hot buckets swallow most rows.
package ann

import (
	"math"

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

// freeze draws the index's hash geometry against the fitted rows: unless
// Params.Unbalanced, a whitening transform T of the sampled data
// covariance, then the first-level table, its hyperplanes drawn from the
// seed, rotated through T and centered on the data mean. In the whitened
// view each effective hyperplane sees equalized variance in every
// direction, so each bit splits the rows roughly in half even under a
// dominant direction.
func (ix *Index) freeze() {
	var mu []float64
	ix.xform = nil
	if !ix.p.Unbalanced {
		mu, ix.xform = ix.whiteningTransform()
	}
	ix.top = ix.newTable(ix.p.Bits, ix.p.Seed, mu)
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
func (ix *Index) whiteningTransform() (mu []float64, t *dense.Matrix) {
	rows, d := ix.n, ix.d
	stride := rows / annSampleTarget
	if stride < 1 {
		stride = 1
	}
	mu = make([]float64, d)
	cnt := 0
	for i := 0; i < rows; i += stride {
		for j, v := range ix.data.Row(i) {
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
		row := ix.data.Row(i)
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

// buildSubs re-hashes every bucket whose occupancy exceeds
// max(rehashMinRows, rehashFactor·n/2^Bits) one level deeper: a fresh
// seed-derived table (whitened with the frozen transform, centered on
// the bucket's own mean) splits the bucket into sub-buckets sized back
// toward the mean occupancy, and the bucket's segment of the order array
// is regrouped in place by the same stable bucket sort. Queries then
// gather only their matching sub-buckets and defer the rest (see gather).
func (ix *Index) buildSubs() {
	nb := 1 << ix.p.Bits
	ix.subOf = resize(ix.subOf, nb)
	for i := range ix.subOf {
		ix.subOf[i] = -1
	}
	ix.subs = ix.subs[:0]
	ix.stats.Rehashed = 0
	if ix.p.Unbalanced {
		return
	}
	mean := max(ix.n>>uint(ix.p.Bits), 1)
	threshold := max(rehashFactor*mean, rehashMinRows)
	// A probed re-hashed bucket contributes at most as many rows as the
	// largest allowed ordinary bucket, gathered in sub-probe margin
	// order (see gather).
	ix.subBudget = threshold
	ix.mean = resize(ix.mean, ix.d)
	for b := range nb {
		lo, hi := int(ix.top.start[b]), int(ix.top.start[b+1])
		size := hi - lo
		if size <= threshold {
			continue
		}
		sb := 1
		for sb < maxSubBits && size > mean<<uint(sb) {
			sb++
		}
		// Center the sub-split on the bucket's own mean: rows landed here
		// because they look alike globally, so only local contrast splits
		// them.
		seg := ix.order[lo:hi]
		clear(ix.mean)
		for _, r := range seg {
			for j, v := range ix.data.Row(int(r)) {
				ix.mean[j] += v
			}
		}
		for j := range ix.mean {
			ix.mean[j] /= float64(size)
		}
		st := ix.newTable(sb, ix.p.Seed^(int64(b)+1)*0x2545f4914f6cdd1d, ix.mean)
		codes, z := ix.codes[:size], make([]float64, sb)
		for i, r := range seg {
			codes[i] = st.project(ix.data.Row(int(r)), z)
		}
		ix.tmp = resize(ix.tmp, size)
		ix.bucketSort(&st, codes, seg, ix.tmp)
		copy(seg, ix.tmp)
		ix.subOf[b] = int32(len(ix.subs))
		ix.subs = append(ix.subs, st)
		ix.stats.Rehashed++
	}
}
