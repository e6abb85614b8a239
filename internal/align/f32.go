// The float32 compute tier of candidate generation. Stage-3 training
// hands fine-tuning float64 embeddings; these scratches convert them
// once per iteration — through the fused center/normalise kernel — into
// half-width copies and run the bandwidth-bound work (blocked top-k
// projection, LSH hashing, exact re-rank) on float32 values with float64
// accumulators. Candidate lists stay float64 (scores widen on store, a
// monotonic map, so ordering is exactly the f32 comparison order), which
// keeps every downstream consumer — hubness, LISI, trusted pairs,
// integration, matching — byte-for-byte identical code in both tiers.
package align

import (
	"fmt"

	"github.com/htc-align/htc/internal/ann"
	"github.com/htc-align/htc/internal/dense"
	"github.com/htc-align/htc/internal/par"
	"github.com/htc-align/htc/internal/topk"
)

// topkScratch32 is topkScratch on the float32 tier: half-width
// centered/normalised embedding copies and per-worker float32 sim
// blocks. Halving the element width doubles both the rows per cache
// line and the effective capacity of each 4 MiB block budget.
type topkScratch32 struct {
	a, b   *dense.Matrix32
	blocks []*dense.Matrix32
	sels   []topk.Selector
}

// topK mirrors topkScratch.topK over float32 embeddings. Scores are
// accumulated in float64 per cell and stored as float32 (see
// dense.MulBTInto32); topk.Select compares the widened stored values,
// so results are bit-identical for every worker count.
func (s *topkScratch32) topK(hs, ht *dense.Matrix, k, workers int) *Candidates {
	if k < 1 {
		panic(fmt.Sprintf("align: TopKCandidates k = %d < 1", k))
	}
	if k > ht.Rows {
		k = ht.Rows
	}
	s.a = dense.Ensure32(s.a, hs.Rows, hs.Cols)
	s.b = dense.Ensure32(s.b, ht.Rows, ht.Cols)
	dense.CenterNormalizeRowsInto32(s.a, hs)
	dense.CenterNormalizeRowsInto32(s.b, ht)

	ns, nt := hs.Rows, ht.Rows
	out := &Candidates{
		K:     k,
		Idx:   make([][]int32, ns),
		Score: make([][]float64, ns),
	}
	idxBack := make([]int32, ns*k)
	scoreBack := make([]float64, ns*k)
	for i := 0; i < ns; i++ {
		out.Idx[i] = idxBack[i*k : i*k+k : i*k+k]
		out.Score[i] = scoreBack[i*k : i*k+k : i*k+k]
	}
	if ns == 0 || k == 0 {
		return out
	}

	blockRows := topkBlockRows(nt)
	nBlocks := (ns + blockRows - 1) / blockRows
	w := par.Resolve(workers)
	if w > nBlocks {
		w = nBlocks
	}
	if len(s.blocks) < w {
		s.blocks = append(s.blocks, make([]*dense.Matrix32, w-len(s.blocks))...)
	}
	if len(s.sels) < w {
		s.sels = append(s.sels, make([]topk.Selector, w-len(s.sels))...)
	}
	a, b := s.a, s.b
	par.Sharded(w, nBlocks, func(worker, blk int) {
		start := blk * blockRows
		end := start + blockRows
		if end > ns {
			end = ns
		}
		rows := end - start
		s.blocks[worker] = dense.Ensure32(s.blocks[worker], blockRows, nt)
		sim := &dense.Matrix32{Rows: rows, Cols: nt, Data: s.blocks[worker].Data[:rows*nt]}
		block := &dense.Matrix32{Rows: rows, Cols: a.Cols, Data: a.Data[start*a.Cols : end*a.Cols]}
		dense.MulBTInto32(sim, block, b, 1)
		sel := &s.sels[worker]
		for r := 0; r < rows; r++ {
			topk.Select(sel, out.Idx[start+r], out.Score[start+r], nil, sim.Row(r))
		}
	})
	return out
}

// annScratch32 is annScratch on the float32 tier: half-width
// centered/normalised copies feeding the index's Fit32/TopK32 path. The
// same amortisation applies — iterations after the first reuse the
// copies, planes and bucket arrays.
type annScratch32 struct {
	p    ann.Params
	a, b *dense.Matrix32
	ix   *ann.Index
}

// topK mirrors annScratch.topK: a full-probe float32 index reproduces
// topkScratch32.topK bit for bit (the re-rank rounds to float32 before
// widening, matching the blocked kernel's store).
func (s *annScratch32) topK(hs, ht *dense.Matrix, k, workers int) *Candidates {
	if k < 1 {
		panic(fmt.Sprintf("align: ANNCandidates k = %d < 1", k))
	}
	s.a = dense.Ensure32(s.a, hs.Rows, hs.Cols)
	s.b = dense.Ensure32(s.b, ht.Rows, ht.Cols)
	dense.CenterNormalizeRowsInto32(s.a, hs)
	dense.CenterNormalizeRowsInto32(s.b, ht)
	if s.ix == nil {
		s.ix = ann.New(s.p)
	}
	s.ix.Fit32(s.b, workers)
	r := s.ix.TopK32(s.a, k, workers)
	return &Candidates{K: r.K, Idx: r.Idx, Score: r.Score}
}

func (s *annScratch32) stats() ann.Stats {
	if s.ix == nil {
		return ann.Stats{}
	}
	return s.ix.Stats()
}
