// Package metrics implements the evaluation measures of the paper's §V-A:
// precision@q (Eq. 16) and mean reciprocal rank (Eq. 17), computed against
// a (possibly partial) ground-truth anchor map.
package metrics

import (
	"fmt"

	"github.com/htc-align/htc/internal/align"
	"github.com/htc-align/htc/internal/dense"
)

// Truth maps each source node to its anchor in the target graph; −1 marks
// source nodes without a ground-truth anchor (they are excluded from all
// metrics, matching partial-alignment datasets such as Douban).
type Truth []int

// FromPerm converts a full permutation (source i ↔ target perm[i]) into a
// Truth map.
func FromPerm(perm []int) Truth {
	t := make(Truth, len(perm))
	copy(t, perm)
	return t
}

// NodeIndexer resolves external node IDs to contiguous indices —
// *ingest.NodeMap is the canonical implementation. It lives here as an
// interface so evaluation can be name-keyed without this package
// depending on the ingestion layer.
type NodeIndexer interface {
	// Index returns the index of id and whether it exists.
	Index(id string) (int, bool)
	// Len is the number of mapped nodes.
	Len() int
}

// TruthFromPairs builds an index-keyed Truth map from ID-keyed anchor
// pairs (sourceID, targetID), resolved through the two node maps: ground
// truth, or a matching uploaded for refinement.
// Unknown ids are errors, as is a source appearing twice with different
// targets; an exact repeat is tolerated. Sources never mentioned stay at
// −1.
func TruthFromPairs(pairs [][2]string, src, tgt NodeIndexer) (Truth, error) {
	truth := make(Truth, src.Len())
	for i := range truth {
		truth[i] = -1
	}
	for _, p := range pairs {
		s, ok := src.Index(p[0])
		if !ok {
			return nil, fmt.Errorf("metrics: unknown source node %q", p[0])
		}
		t, ok := tgt.Index(p[1])
		if !ok {
			return nil, fmt.Errorf("metrics: unknown target node %q", p[1])
		}
		if truth[s] >= 0 && truth[s] != t {
			return nil, fmt.Errorf("metrics: source node %q has conflicting anchors", p[0])
		}
		truth[s] = t
	}
	return truth, nil
}

// NumAnchors returns the number of ground-truth anchor links.
func (t Truth) NumAnchors() int {
	n := 0
	for _, v := range t {
		if v >= 0 {
			n++
		}
	}
	return n
}

// Report holds the evaluation of one alignment matrix.
type Report struct {
	// PrecisionAt maps q to precision@q.
	PrecisionAt map[int]float64
	// MRR is the mean reciprocal rank over all anchors.
	MRR float64
	// Anchors is the number of ground-truth pairs evaluated.
	Anchors int
}

// Evaluate scores an alignment matrix against ground truth for the given
// precision cutoffs. The rank of the true anchor within a row is
// 1 + (number of strictly larger scores); ties therefore resolve
// optimistically, the convention the benchmark literature uses.
func Evaluate(m *dense.Matrix, truth Truth, qs ...int) Report {
	if len(truth) != m.Rows {
		panic(fmt.Sprintf("metrics: truth has %d entries for %d source nodes", len(truth), m.Rows))
	}
	rep := Report{PrecisionAt: make(map[int]float64, len(qs))}
	hits := make(map[int]int, len(qs))
	var mrr float64
	for s, tgt := range truth {
		if tgt < 0 {
			continue
		}
		if tgt >= m.Cols {
			panic(fmt.Sprintf("metrics: anchor %d→%d outside %d target nodes", s, tgt, m.Cols))
		}
		rep.Anchors++
		row := m.Row(s)
		score := row[tgt]
		rank := 1
		for _, v := range row {
			if v > score {
				rank++
			}
		}
		mrr += 1 / float64(rank)
		for _, q := range qs {
			if rank <= q {
				hits[q]++
			}
		}
	}
	return rep.finish(hits, mrr, qs)
}

// EvaluateSim is Evaluate over any similarity representation, the
// backend-generic form consumed by the pipeline, the server and the
// CLIs. On a dense representation it is exactly Evaluate. On a top-k
// representation the rank of the true anchor is computed among the
// row's candidates — 1 + (number of strictly larger candidate scores) —
// and an anchor missing from its row's candidate list counts as a miss
// at every cutoff (Hits@q) and contributes nothing to MRR, so pruning
// can only ever lower the reported numbers, never inflate them. With
// k ≥ nt every pair is a candidate and the two forms agree exactly.
func EvaluateSim(sim align.Sim, truth Truth, qs ...int) Report {
	if d, ok := sim.(align.DenseSim); ok {
		// The generic path would pay DenseSim.Scan's per-row sort just to
		// count strictly-larger scores; the dense evaluator's single pass
		// computes the same ranks.
		return Evaluate(d.M, truth, qs...)
	}
	rows, cols := sim.Dims()
	if len(truth) != rows {
		panic(fmt.Sprintf("metrics: truth has %d entries for %d source nodes", len(truth), rows))
	}
	rep := Report{PrecisionAt: make(map[int]float64, len(qs))}
	hits := make(map[int]int, len(qs))
	var mrr float64
	for s, tgt := range truth {
		if tgt < 0 {
			continue
		}
		if tgt >= cols {
			panic(fmt.Sprintf("metrics: anchor %d→%d outside %d target nodes", s, tgt, cols))
		}
		rep.Anchors++
		score, ok := sim.At(s, tgt)
		if !ok {
			continue // anchor pruned from the candidate list: a miss
		}
		rank := 1
		sim.Scan(s, func(_ int, v float64) {
			if v > score {
				rank++
			}
		})
		mrr += 1 / float64(rank)
		for _, q := range qs {
			if rank <= q {
				hits[q]++
			}
		}
	}
	return rep.finish(hits, mrr, qs)
}

// finish folds the accumulated hit counts and reciprocal-rank sum into
// the report.
func (r Report) finish(hits map[int]int, mrr float64, qs []int) Report {
	if r.Anchors == 0 {
		for _, q := range qs {
			r.PrecisionAt[q] = 0
		}
		return r
	}
	r.MRR = mrr / float64(r.Anchors)
	for _, q := range qs {
		r.PrecisionAt[q] = float64(hits[q]) / float64(r.Anchors)
	}
	return r
}

// String renders the standard p@1/p@10/MRR triple.
func (r Report) String() string {
	return fmt.Sprintf("p@1=%.4f p@10=%.4f MRR=%.4f (n=%d)",
		r.PrecisionAt[1], r.PrecisionAt[10], r.MRR, r.Anchors)
}
