package align

// Candidates holds, for every query node, its k most similar nodes on the
// other side with their similarity scores, in descending score order
// (ties by lower index). It is the memory-bounded alternative to the full
// ns×nt similarity matrix: O(n·k) instead of O(n²), answered by an
// internal/ann index (annScratch) as an ann.Result of the same layout.
// Both per-row slices of one Candidates share two backing arrays, so a
// whole structure costs two allocations plus headers.
type Candidates struct {
	K int
	// Idx[i] lists the candidate ids of query i, best first.
	Idx [][]int32
	// Score[i] holds the matching similarities.
	Score [][]float64
}

// candLISI is the LISI step of the top-k backend (Eq. 10–12), the
// candidate-list twin of simScratch's: it keeps both sides' hubness
// vectors across fine-tuning iterations.
type candLISI struct{ dt, ds []float64 }

// pairs estimates both sides' hubness from one iteration's candidate
// lists, fwd source→target and bwd target→source, returns the
// mutual-best trusted pairs under the sparse LISI, and rewrites fwd's
// scores to LISI.
func (l *candLISI) pairs(fwd, bwd *Candidates, m int) [][2]int {
	l.dt = topMeansInto(l.dt, fwd, m)
	l.ds = topMeansInto(l.ds, bwd, m)
	pairs := trustedPairsCands(fwd, bwd, l.dt, l.ds)
	lisiTransform(fwd, l.dt, l.ds)
	return pairs
}

// sparseBest returns each query's best candidate under the LISI
// transform, with ties to the lower candidate index. The transform is
// always evaluated as 2·s − Dt(source) − Ds(target) — float subtraction
// is order-sensitive, so both scan directions must associate exactly
// like the dense LISI kernel to stay bit-identical to it. rowIsTarget
// selects which of dRow/dCand is the source hubness: false means rows
// are sources (dRow = Dt), true means rows are targets (dRow = Ds).
func sparseBest(c *Candidates, dRow, dCand []float64, rowIsTarget bool) []int {
	best := make([]int, len(c.Idx))
	for i, cands := range c.Idx {
		best[i] = -1
		bestScore := 0.0
		for p, j := range cands {
			var score float64
			if rowIsTarget {
				score = 2*c.Score[i][p] - dCand[j] - dRow[i]
			} else {
				score = 2*c.Score[i][p] - dRow[i] - dCand[j]
			}
			if best[i] < 0 || score > bestScore || (score == bestScore && int(j) < best[i]) {
				best[i], bestScore = int(j), score
			}
		}
	}
	return best
}

// trustedPairsCands returns the mutual-best pairs under the sparse LISI
// of Eq. 11–12, given the hubness vectors of both sides: (i, j) is
// trusted iff j is i's best candidate and i is j's best candidate, each
// judged in its own direction. With k = n it reproduces the dense
// TrustedPairs(LISI(corr, m)).
func trustedPairsCands(forward, backward *Candidates, dt, ds []float64) [][2]int {
	fb := sparseBest(forward, dt, ds, false)
	bb := sparseBest(backward, ds, dt, true)
	var pairs [][2]int
	for i, j := range fb {
		if j >= 0 && bb[j] == i {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	return pairs
}

// topMeansInto fills dst (reallocating if needed) with, per query, the
// mean of its top-m candidate scores — the hubness degree estimate. The
// scores are summed in descending order, matching the dense topMean, so
// the two backends agree bit-for-bit when k ≥ m.
func topMeansInto(dst []float64, c *Candidates, m int) []float64 {
	dst = ensureVec(dst, len(c.Score))
	for i, scores := range c.Score {
		lim := m
		if lim > len(scores) {
			lim = len(scores)
		}
		if lim == 0 {
			dst[i] = 0
			continue
		}
		var s float64
		for _, v := range scores[:lim] {
			s += v
		}
		dst[i] = s / float64(lim)
	}
	return dst
}

// lisiTransform rewrites candidate scores from raw similarity to the LISI
// of Eq. 11 — score(i,j) ← 2·score − dt[i] − ds[j] — and re-sorts every
// row into descending LISI order (ties by lower index), restoring the
// Candidates ordering contract under the new scores.
func lisiTransform(c *Candidates, dt, ds []float64) {
	for i, cands := range c.Idx {
		scores := c.Score[i]
		di := dt[i]
		for p, j := range cands {
			scores[p] = 2*scores[p] - di - ds[j]
		}
		SortRowDesc(cands, scores)
	}
}
