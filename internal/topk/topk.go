// Package topk selects the k best entries of a scored list under the
// one tie rule every candidate list in the aligner follows: a larger
// score first, equal scores to the lower index. The blocked top-k scan
// and the ANN re-rank in internal/align and internal/ann, the dense
// hubness degrees in internal/align, and RefiNA's token choice in
// internal/refine, all select through Select. That is
// what keeps a full-probe ANN index bit-identical to the blocked scan,
// and RefiNA's candidate-list path bit-identical to its dense path.
package topk

// Selector is Select's reusable working set: a heap of at most k
// entries, ordered worse first. The zero value is ready to use; one
// Selector serves one goroutine.
type Selector struct {
	heap []entry
}

// entry is one scored index held in the heap.
type entry struct {
	score float64
	idx   int32
}

// worse reports whether e is a strictly worse entry than f: a smaller
// score, or an equal score and a larger index.
func (e entry) worse(f entry) bool {
	return e.score < f.score || e.score == f.score && e.idx > f.idx
}

// Select writes the k = len(outIdx) best entries of scores into outIdx
// and outScore, best first. Entry p has index ids[p], or p when ids is
// nil. When scores holds fewer than k entries, only the first
// len(scores) output slots are written. float32 scores widen on output;
// the widening is monotonic and injective, so the order is the float32
// order.
func Select[F float32 | float64](s *Selector, outIdx []int32, outScore []float64, ids []int32, scores []F) {
	k := len(outIdx)
	if k == 0 {
		return
	}
	h := s.heap[:0]
	for p, f := range scores {
		e := entry{float64(f), int32(p)}
		if ids != nil {
			e.idx = ids[p]
		}
		if len(h) < k {
			h = append(h, e)
			siftUp(h, len(h)-1)
			continue
		}
		// Strictly better than the current worst? (On a score tie the
		// lower index, already in the heap, wins.)
		if h[0].worse(e) {
			h[0] = e
			siftDown(h, 0)
		}
	}
	// Pop worst first into the tail of the output.
	for n := len(h) - 1; n >= 0; n-- {
		outIdx[n], outScore[n] = h[0].idx, h[0].score
		h[0] = h[n]
		siftDown(h[:n], 0)
	}
	s.heap = h
}

// siftUp restores the worse-first order after h[i] was appended.
func siftUp(h []entry, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].worse(h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// siftDown restores the worse-first order after h[i] was replaced.
func siftDown(h []entry, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && h[r].worse(h[l]) {
			m = r
		}
		if !h[m].worse(h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
