// The float32 compute tier of candidate generation. Stage-3 training
// hands fine-tuning float64 embeddings; annScratch32 converts them once
// per iteration — through the fused center/normalise kernel — into
// half-width copies, and the index runs the bandwidth-bound work (the
// exact blocked scan, or LSH hashing and re-rank) on float32 values with
// float64 accumulators. Candidate lists stay float64 (scores widen on
// store, a monotonic map, so ordering is exactly the f32 comparison
// order), which keeps every downstream consumer — hubness, LISI, trusted
// pairs, integration, matching — byte-for-byte identical code in both
// tiers.
package align

import (
	"github.com/htc-align/htc/internal/ann"
	"github.com/htc-align/htc/internal/dense"
)

// annScratch32 is annScratch on the float32 tier: half-width
// centered/normalised copies feeding the index's Fit32/TopK32 path. The
// same amortisation applies — iterations after the first reuse the
// copies and the index's scratch.
type annScratch32 struct {
	p    ann.Params
	a, b *dense.Matrix32
	ix   *ann.Index
}

// topK mirrors annScratch.topK on half-width copies.
func (s *annScratch32) topK(hs, ht *dense.Matrix, k, workers int) *Candidates {
	s.a = dense.Ensure32(s.a, hs.Rows, hs.Cols)
	dense.CenterNormalizeRowsInto32(s.a, hs)
	s.b = dense.Ensure32(s.b, ht.Rows, ht.Cols)
	dense.CenterNormalizeRowsInto32(s.b, ht)
	if s.ix == nil {
		s.ix = ann.New(s.p)
	}
	s.ix.Fit32(s.b, workers)
	return (*Candidates)(s.ix.TopK32(s.a, k, workers))
}

func (s *annScratch32) stats() ann.Stats {
	if s.ix == nil {
		return ann.Stats{}
	}
	return s.ix.Stats()
}
