package align

import (
	"github.com/htc-align/htc/internal/ann"
	"github.com/htc-align/htc/internal/dense"
)

// annScratch generates candidates through an internal/ann index: the
// centered/normalised embedding copies plus a reusable index. With zero
// Params the index is the exact blocked scan (the top-k backend); with
// positive Bits it is the LSH generator (the ann backend); with F32 set
// the copies are rounded to float32 and so is every score, the float32
// precision tier. One scratch serves one direction of a fine-tuning
// loop; iterations after the first reuse the copies, the index and its
// block or bucket scratch, and allocate only their output Candidates.
type annScratch struct {
	p    ann.Params
	a, b *dense.Matrix
	ix   *ann.Index
}

// topK fills a fresh Candidates with every source row's top-k most
// Pearson-similar target rows, exact or approximate as the Params say.
// Centering and row-normalising both sides first turns the inner
// products the index ranks by into exactly the Pearson scores of the
// dense Corr — same floats, same (score desc, id asc) ordering — so
// downstream consumers (hubness, LISI, trusted pairs, integration) run
// unchanged on the candidate lists, and a full-probe index equals a
// zero-bits one. On the float32 tier the copies hold float32 values and
// the scores are rounded to float32, the same floats and order as a
// float32 store would give.
func (s *annScratch) topK(hs, ht *dense.Matrix, k, workers int) *Candidates {
	s.a = dense.Ensure(s.a, hs.Rows, hs.Cols)
	s.b = dense.Ensure(s.b, ht.Rows, ht.Cols)
	if s.p.F32 {
		dense.CenterNormalizeRowsInto32(s.a, hs)
		dense.CenterNormalizeRowsInto32(s.b, ht)
	} else {
		dense.CenterNormalizeRowsInto(s.a, hs)
		dense.CenterNormalizeRowsInto(s.b, ht)
	}
	if s.ix == nil {
		s.ix = ann.New(s.p)
	}
	s.ix.Fit(s.b, workers)
	// Result and Candidates share their layout: adopt the result as is.
	return (*Candidates)(s.ix.TopK(s.a, k, workers))
}

// stats returns the scratch's accumulated index statistics; the zero
// block if the index was never built.
func (s *annScratch) stats() ann.Stats {
	if s.ix == nil {
		return ann.Stats{}
	}
	return s.ix.Stats()
}
