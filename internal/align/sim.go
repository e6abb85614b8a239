package align

import (
	"fmt"
	"sort"

	"github.com/htc-align/htc/internal/dense"
)

// Backend names for Sim implementations (mirrored into configs, results
// and the server's JSON contract).
const (
	BackendDense = "dense"
	BackendTopK  = "topk"
)

// Sim is the similarity-representation abstraction of the alignment
// stack: an alignment-score structure over source rows × target columns
// that is either a full dense matrix or a memory-bounded top-k candidate
// structure. Every consumer of alignment scores — matching, integration,
// evaluation, the CLIs and the server — speaks this interface, so the
// O(ns·nt) dense matrix is one representation among several rather than
// a structural assumption.
//
// A pair (i, j) outside a sparse representation has no score: it is
// "not a candidate", which consumers treat as strictly worse than every
// represented pair. With k ≥ nt the top-k representation holds every
// pair and is bit-identical to the dense one.
type Sim interface {
	// Dims returns the represented shape (source rows, target columns).
	Dims() (rows, cols int)
	// At returns the score of pair (i, j) and whether the pair is
	// represented.
	At(i, j int) (float64, bool)
	// Scan calls fn for every represented pair of row i, in descending
	// score order (ties in ascending column order).
	Scan(i int, fn func(j int, score float64))
	// Predict returns, per source row, the best-scoring target column
	// (ties to the lowest column; −1 for rows with no candidates).
	Predict() []int
	// Dense materialises the representation as a dense matrix.
	// Unrepresented pairs get a finite floor strictly below every
	// candidate score (scores can be negative, so zero would not do).
	// On a dense backend this returns the underlying matrix itself.
	Dense() *dense.Matrix
	// Backend names the representation (BackendDense or BackendTopK).
	Backend() string
}

// DenseSim adapts a full ns×nt score matrix to the Sim interface.
type DenseSim struct{ M *dense.Matrix }

// Dims implements Sim.
func (d DenseSim) Dims() (int, int) { return d.M.Rows, d.M.Cols }

// At implements Sim; every pair is represented.
func (d DenseSim) At(i, j int) (float64, bool) { return d.M.At(i, j), true }

// Scan implements Sim, visiting the row's entries best-first.
func (d DenseSim) Scan(i int, fn func(j int, score float64)) {
	row := d.M.Row(i)
	order := make([]int, len(row))
	for j := range order {
		order[j] = j
	}
	sort.SliceStable(order, func(a, b int) bool { return row[order[a]] > row[order[b]] })
	for _, j := range order {
		fn(j, row[j])
	}
}

// Predict implements Sim.
func (d DenseSim) Predict() []int { return d.M.ArgmaxRows() }

// Dense implements Sim, returning the wrapped matrix itself.
func (d DenseSim) Dense() *dense.Matrix { return d.M }

// Backend implements Sim.
func (d DenseSim) Backend() string { return BackendDense }

// TopKSim is the sparse Sim: per source row, up to K candidate target
// columns with scores, each row in descending score order (ties by lower
// column). Cols records the full target count, which a candidate list
// cannot see on its own.
type TopKSim struct {
	C    *Candidates
	Cols int
}

// Dims implements Sim.
func (t *TopKSim) Dims() (int, int) { return len(t.C.Idx), t.Cols }

// At implements Sim: a linear scan over the row's ≤ K candidates.
func (t *TopKSim) At(i, j int) (float64, bool) {
	for c, idx := range t.C.Idx[i] {
		if int(idx) == j {
			return t.C.Score[i][c], true
		}
	}
	return 0, false
}

// Scan implements Sim; candidate rows are already sorted best-first.
func (t *TopKSim) Scan(i int, fn func(j int, score float64)) {
	for c, idx := range t.C.Idx[i] {
		fn(int(idx), t.C.Score[i][c])
	}
}

// Predict implements Sim: the head of each sorted candidate row.
func (t *TopKSim) Predict() []int {
	out := make([]int, len(t.C.Idx))
	for i, cands := range t.C.Idx {
		if len(cands) == 0 {
			out[i] = -1
			continue
		}
		out[i] = int(cands[0])
	}
	return out
}

// Dense implements Sim: candidates keep their scores, absent pairs get a
// floor strictly below the smallest candidate score, so argmax-style
// consumers never prefer a non-candidate.
func (t *TopKSim) Dense() *dense.Matrix {
	rows, cols := t.Dims()
	m := dense.New(rows, cols)
	floor := 0.0
	for _, scores := range t.C.Score {
		for _, s := range scores {
			if s < floor {
				floor = s
			}
		}
	}
	floor--
	m.Fill(floor)
	for i, cands := range t.C.Idx {
		row := m.Row(i)
		for c, j := range cands {
			row[j] = t.C.Score[i][c]
		}
	}
	return m
}

// Backend implements Sim.
func (t *TopKSim) Backend() string { return BackendTopK }

// IntegrateSims combines per-orbit alignment representations with the
// posterior importance weights of Eq. 15, the backend-generic form of
// Integrate. All inputs must share one backend and shape. The dense path
// is exactly Integrate; the top-k path merges candidate lists per row —
// a pair's integrated score sums γk·score over the orbits that list it,
// accumulated in orbit order like the dense AddScaled loop, so with
// k ≥ nt the two backends are bit-identical.
func IntegrateSims(sims []Sim, trusted []int) (Sim, []float64) {
	if len(sims) == 0 || len(sims) != len(trusted) {
		panic("align: IntegrateSims needs one trusted count per sim")
	}
	if _, ok := sims[0].(DenseSim); ok {
		ms := make([]*dense.Matrix, len(sims))
		for i, s := range sims {
			dd, ok := s.(DenseSim)
			if !ok {
				panic("align: IntegrateSims inputs mix backends")
			}
			ms[i] = dd.M
		}
		m, gammas := Integrate(ms, trusted)
		return DenseSim{M: m}, gammas
	}

	ts := make([]*TopKSim, len(sims))
	for i, s := range sims {
		tt, ok := s.(*TopKSim)
		if !ok {
			panic("align: IntegrateSims inputs mix backends")
		}
		ts[i] = tt
	}
	gammas := integrationWeights(trusted)
	rows, cols := ts[0].Dims()
	for _, t := range ts {
		r, c := t.Dims()
		if r != rows || c != cols {
			panic(fmt.Sprintf("align: IntegrateSims shape mismatch %dx%d vs %dx%d", r, c, rows, cols))
		}
	}

	out := &Candidates{Idx: make([][]int32, rows), Score: make([][]float64, rows)}
	// Per-row merge scratch: accumulated scores plus a generation stamp
	// that marks which columns the current row has touched (avoiding an
	// O(cols) clear per row).
	acc := make([]float64, cols)
	stamp := make([]int, cols)
	gen := 0
	maxK := 0
	for i := 0; i < rows; i++ {
		gen++
		members := make([]int32, 0, 8)
		for k, t := range ts {
			g := gammas[k]
			idx := t.C.Idx[i]
			scores := t.C.Score[i]
			for c, j := range idx {
				if stamp[j] != gen {
					stamp[j] = gen
					acc[j] = 0
					members = append(members, j)
				}
				acc[j] += g * scores[c]
			}
		}
		score := make([]float64, len(members))
		// Deterministic merge order: sort members ascending first so the
		// final (score desc, column asc) order never depends on which
		// orbit introduced a column.
		sort.Slice(members, func(a, b int) bool { return members[a] < members[b] })
		for c, j := range members {
			score[c] = acc[j]
		}
		sortRowDesc(members, score)
		out.Idx[i] = members
		out.Score[i] = score
		if len(members) > maxK {
			maxK = len(members)
		}
	}
	out.K = maxK
	return &TopKSim{C: out, Cols: cols}, gammas
}

// integrationWeights computes the γk of Eq. 15 from trusted-pair counts,
// falling back to uniform when no orbit found any pair.
func integrationWeights(trusted []int) []float64 {
	var total int
	for _, t := range trusted {
		total += t
	}
	gammas := make([]float64, len(trusted))
	for k := range gammas {
		if total > 0 {
			gammas[k] = float64(trusted[k]) / float64(total)
		} else {
			gammas[k] = 1 / float64(len(trusted))
		}
	}
	return gammas
}

// candRow sorts a candidate row in place: descending score, ties by
// ascending column index (the dense argmax tie rule). The comparator is a
// strict total order, so an unstable sort is deterministic.
type candRow struct {
	idx   []int32
	score []float64
}

func (r candRow) Len() int { return len(r.idx) }
func (r candRow) Less(a, b int) bool {
	if r.score[a] != r.score[b] {
		return r.score[a] > r.score[b]
	}
	return r.idx[a] < r.idx[b]
}
func (r candRow) Swap(a, b int) {
	r.idx[a], r.idx[b] = r.idx[b], r.idx[a]
	r.score[a], r.score[b] = r.score[b], r.score[a]
}

// sortRowDesc orders one candidate row best-first in place.
func sortRowDesc(idx []int32, score []float64) {
	sort.Sort(candRow{idx: idx, score: score})
}

// SortRowDesc orders a candidate row best-first in place: descending
// score, ties by ascending column — the one tie rule every sparse
// consumer (matching, evaluation, refinement) shares, exported so other
// packages producing candidate rows cannot drift from it. topk.Select
// keeps the k best of a row by the same rule without a full sort.
func SortRowDesc(idx []int32, score []float64) { sortRowDesc(idx, score) }
