// Package refine implements RefiNA-style iterative refinement of a
// network alignment (Heimann et al., "Refining Network Alignment to
// Improve Matched Neighborhood Consistency"): starting from any
// similarity structure over two graphs, each iteration boosts the score
// of pairs whose neighbors agree with the current alignment
// (M ← M ⊙ A₁MA₂), adds a small token-match mass so promising pairs
// outside the current support can enter, and renormalises rows then
// columns. A few iterations lift Hits@1 for any aligner's output.
//
// Two paths serve the two align.Sim backend families. A dense Sim is
// refined directly over n×n buffers: T = A₁·M through the sparse
// product kernel, then U = T·A₂ gathered row by row, so an iteration
// costs O(n²·deg) with no per-row state. Every other Sim is refined as
// candidate lists: top-k rows pruned back to the candidate budget after
// every update, so a 100k-node alignment refines in O(n·k·deg) per
// iteration without an n×n buffer, and returned best-first, as
// align.TopKSim's Scan and Predict require. Both paths add in the same
// orders, so refining a dense matrix and refining a full (k ≥ nt)
// candidate list are bit-identical: a candidate row's L1 sum adds its
// sorted scores best-first, and a dense row's adds its values largest
// first, ordered by a radix sort of their bits
// (TestRowSumBitIdenticalToSort holds that sum to a comparison sort's).
// TestDenseAndFullCandidateListAgreeBitwise checks the identity across
// graph shapes, token budgets and worker counts, and
// TestRefinedBitsPinned pins both paths' output bits. Both paths choose
// their token matches through internal/topk, the candidate generators'
// selector, ties to the lower column.
package refine

import (
	"context"
	"fmt"
	"math"
	"slices"

	"github.com/htc-align/htc/internal/align"
	"github.com/htc-align/htc/internal/graph"
	"github.com/htc-align/htc/internal/par"
	"github.com/htc-align/htc/internal/topk"
)

// Options configures a refinement run.
type Options struct {
	// Iters is the number of refinement iterations. 0 returns the input
	// unchanged (with only the initial MNC measured).
	Iters int
	// TokenK bounds the token-match budget: per source row, only the
	// TokenK strongest neighbor-supported columns receive the additive
	// token mass that lets new candidates enter the support. 0 resolves
	// to the row budget (every column on the dense path, the candidate
	// budget k on the sparse path), the exact-RefiNA behaviour.
	TokenK int
	// Workers bounds the goroutine fan-out (≤ 0 = all CPUs). The result
	// is identical for every worker count.
	Workers int
	// Ctx, when non-nil, cancels the run between iterations.
	Ctx context.Context
	// OnIter, when non-nil, observes each completed iteration and the
	// matched-neighborhood consistency reached after it.
	OnIter func(iter int, mnc float64)
}

// Result is the outcome of a refinement run.
type Result struct {
	// Sim is the refined similarity, in the input's representation
	// (dense in → dense out, candidate list in → candidate list out).
	// The input representation is never mutated.
	Sim align.Sim
	// MNC records the matched neighborhood consistency trajectory:
	// MNC[0] is the input alignment's score, MNC[t] the score after
	// iteration t (length Iters+1).
	MNC []float64
	// TokenK is the resolved token-match budget.
	TokenK int
}

// Refine runs Options.Iters RefiNA iterations of sim over the graph
// pair. sim's shape must match the graphs. The input sim is not
// mutated; rows that receive no neighbor signal in an iteration (an
// isolated node, or empty neighbor rows) pass through unchanged.
func Refine(sim align.Sim, gs, gt *graph.Graph, opts Options) (*Result, error) {
	if sim == nil {
		return nil, fmt.Errorf("refine: nil similarity")
	}
	rows, cols := sim.Dims()
	if rows != gs.N() || cols != gt.N() {
		return nil, fmt.Errorf("refine: similarity is %d×%d but the pair is %d×%d", rows, cols, gs.N(), gt.N())
	}
	if opts.Iters < 0 {
		return nil, fmt.Errorf("refine: iterations must be ≥ 0 (got %d)", opts.Iters)
	}
	if opts.TokenK < 0 {
		return nil, fmt.Errorf("refine: token budget must be ≥ 0 (got %d)", opts.TokenK)
	}

	// The row budget TokenK = 0 resolves to: every column on the dense
	// path, the candidate budget on the candidate path.
	var st iterate
	budget := cols
	if d, ok := sim.(align.DenseSim); ok {
		st = &denseState{m: d.M}
	} else {
		cs := newState(sim, cols)
		st, budget = cs, cs.k
	}
	tokenK := opts.TokenK
	if tokenK == 0 {
		tokenK = budget
	}
	workers := par.Resolve(opts.Workers)

	res := &Result{TokenK: tokenK, MNC: make([]float64, 0, opts.Iters+1)}
	res.MNC = append(res.MNC, MNC(st.argmaxRows(workers), gs, gt, workers))
	if opts.Iters == 0 {
		res.Sim = sim
		return res, nil
	}

	st.softAssignRows()
	// The RefiNA token mass: small enough never to outrank genuine
	// neighbor agreement after normalisation, large enough to keep
	// token-matched pairs strictly above zero.
	eps := 1 / (float64(rows) * float64(cols))
	for it := 1; it <= opts.Iters; it++ {
		if opts.Ctx != nil {
			if err := opts.Ctx.Err(); err != nil {
				return nil, err
			}
		}
		st.step(gs, gt, eps, tokenK, workers)
		mnc := MNC(st.argmaxRows(workers), gs, gt, workers)
		res.MNC = append(res.MNC, mnc)
		if opts.OnIter != nil {
			opts.OnIter(it, mnc)
		}
	}
	res.Sim = st.toSim()
	return res, nil
}

// FromMatching lifts a hard matching (match[s] = t, −1 unmatched) into
// a one-hot candidate-list Sim over cols target columns, the form
// Refine accepts for alignments produced outside the pipeline. k sets
// the candidate budget refinement may grow each row to (clamped to at
// least 1).
func FromMatching(match []int, cols, k int) (*align.TopKSim, error) {
	if k < 1 {
		k = 1
	}
	c := &align.Candidates{K: k, Idx: make([][]int32, len(match)), Score: make([][]float64, len(match))}
	for i, t := range match {
		if t < 0 {
			continue
		}
		if t >= cols {
			return nil, fmt.Errorf("refine: matching sends node %d to target %d outside %d columns", i, t, cols)
		}
		c.Idx[i] = []int32{int32(t)}
		c.Score[i] = []float64{1}
	}
	return &align.TopKSim{C: c, Cols: cols}, nil
}

// iterate is the working copy one path refines: the dense path's
// buffers or the candidate path's rows. Neither ever writes to the
// input Sim.
type iterate interface {
	// argmaxRows extracts the current hard alignment: per row the best
	// (score desc, column asc) entry, −1 for empty rows.
	argmaxRows(workers int) []int
	// softAssignRows converts every row through softAssign, once,
	// before the first step.
	softAssignRows()
	// step runs one RefiNA iteration.
	step(gs, gt *graph.Graph, eps float64, tokenK, workers int)
	// toSim returns the iterate in the input's representation.
	toSim() align.Sim
}

// softAssign converts a row into the peaked non-negative soft
// assignment the multiplicative RefiNA update needs: score'(c) =
// exp((score(c) − rowMax)/T) with the scale-invariant temperature
// T = (rowMax − rowMin)/logC, with logC = ln(cols), so a row's best
// entry maps to 1, its worst to 1/cols, and every within-row ranking is
// preserved. The temperature choice is what makes refinement safe on
// arbitrary score families (Pearson and LISI scores are negative with
// heavy near-uniform background): it bounds a full row's background
// mass at O(1), the same order as one true match, so the update
// M ⊙ A₁MA₂ measures neighbor agreement rather than degree products.
// Constant rows (including the one-hot rows of FromMatching) map to
// all-ones.
func softAssign(row []float64, logC float64) {
	if len(row) == 0 {
		return
	}
	max, min := row[0], row[0]
	for _, v := range row[1:] {
		if v > max {
			max = v
		}
		if v < min {
			min = v
		}
	}
	if max == min || logC <= 0 {
		for c := range row {
			row[c] = 1
		}
		return
	}
	invT := logC / (max - min)
	for c := range row {
		row[c] = math.Exp((row[c] - max) * invT)
	}
}

// tokenPicker is one worker's token choice: it gathers U over the
// candidate columns and keeps the strongest through topk.Select, so
// both paths break ties to the lower column by the aligner's one rule.
type tokenPicker struct {
	u     []float64 // U gathered over the candidate columns
	idx   []int32
	score []float64
	sel   topk.Selector
}

// pick returns the k columns of cand with the largest u[j], ties to the
// lower column, or cand itself when it holds no more than k. The result
// is reused by the next call.
func (t *tokenPicker) pick(cand []int32, u []float64, k int) []int32 {
	if k >= len(cand) {
		return cand
	}
	t.u = t.u[:0]
	for _, j := range cand {
		t.u = append(t.u, u[j])
	}
	if len(t.idx) != k {
		t.idx, t.score = make([]int32, k), make([]float64, k)
	}
	topk.Select(&t.sel, t.idx, t.score, cand, t.u)
	return t.idx
}

// state is the candidate path's iterate: per-row candidate lists. Rows
// are never mutated in place across an update — each iteration
// double-buffers — so neighbor reads always see the previous iterate.
type state struct {
	idx   [][]int32
	score [][]float64
	rows  int
	cols  int
	// k is the per-row candidate budget rows are pruned back to after
	// every update.
	k int
	// scratch holds each worker's row buffers across iterations.
	scratch []*scratch
}

func newState(sim align.Sim, cols int) *state {
	rows, _ := sim.Dims()
	st := &state{rows: rows, cols: cols, idx: make([][]int32, rows), score: make([][]float64, rows)}
	switch s := sim.(type) {
	case *align.TopKSim:
		st.k = s.C.K
		if st.k < 1 {
			st.k = 1
		}
		for i := 0; i < rows; i++ {
			st.idx[i] = append([]int32(nil), s.C.Idx[i]...)
			st.score[i] = append([]float64(nil), s.C.Score[i]...)
		}
	default:
		// An unknown Sim implementation: materialise through Scan.
		st.k = cols
		for i := 0; i < rows; i++ {
			sim.Scan(i, func(j int, v float64) {
				st.idx[i] = append(st.idx[i], int32(j))
				st.score[i] = append(st.score[i], v)
			})
		}
	}
	return st
}

func (s *state) softAssignRows() {
	logC := math.Log(float64(s.cols))
	for _, row := range s.score {
		softAssign(row, logC)
	}
}

func (s *state) toSim() align.Sim {
	// The column normalisation reorders rows; put each back best-first,
	// the order TopKSim's Scan and Predict rely on. No step reads the
	// order, so once at the end suffices.
	for i, idx := range s.idx {
		align.SortRowDesc(idx, s.score[i])
	}
	c := &align.Candidates{K: s.k, Idx: s.idx, Score: s.score}
	return &align.TopKSim{C: c, Cols: s.cols}
}

func (s *state) argmaxRows(workers int) []int {
	out := make([]int, s.rows)
	par.Tasks(workers, s.rows, func(i int) {
		best := -1
		var bestScore float64
		for c, j := range s.idx[i] {
			v := s.score[i][c]
			if best < 0 || v > bestScore || (v == bestScore && int(j) < best) {
				best, bestScore = int(j), v
			}
		}
		out[i] = best
	})
	return out
}

// scratch is one worker's private per-row buffers: generation-stamped
// accumulators over target columns, so a row update never pays an
// O(cols) clear.
type scratch struct {
	accV   []float64 // agreement mass per intermediate target node v
	stampV []int
	accU   []float64 // the update vector U = (A₁MA₂)[i,·]
	stampU []int
	val    []float64 // the old row's scores by column
	stampR []int
	token  []int // stamp marking token-matched columns
	gen    int
	vm     []int32     // support of accV
	um     []int32     // support of accU
	rm     []int32     // new row support
	tok    tokenPicker // token choice
}

func newScratch(cols int) *scratch {
	return &scratch{
		accV: make([]float64, cols), stampV: make([]int, cols),
		accU: make([]float64, cols), stampU: make([]int, cols),
		val: make([]float64, cols), stampR: make([]int, cols),
		token: make([]int, cols),
	}
}

// step runs one RefiNA iteration over the candidate rows. Rows fan out
// across workers with per-row output slots and a deterministic
// column-sum reduction, so the result is identical for every worker
// count and schedule.
func (s *state) step(gs, gt *graph.Graph, eps float64, tokenK, workers int) {
	if s.scratch == nil {
		s.scratch = make([]*scratch, par.Resolve(workers))
	}
	idx, score := make([][]int32, s.rows), make([][]float64, s.rows)
	par.Sharded(workers, s.rows, func(w, i int) {
		sc := s.scratch[w]
		if sc == nil {
			sc = newScratch(s.cols)
			s.scratch[w] = sc
		}
		ri, rs := sc.updateRow(i, s, gs, gt, eps, tokenK)
		if ri == nil {
			// No neighbor signal reached this row: pass it through. The
			// slices are read-only from here on, so aliasing the old
			// iterate is safe.
			ri, rs = s.idx[i], s.score[i]
		}
		idx[i], score[i] = ri, rs
	})
	s.idx, s.score = idx, score

	// L1 column normalisation over the represented entries. The sums
	// accumulate serially in ascending row order — each worker writing
	// into a shared vector would make the addition order (and thus the
	// float64 result) schedule-dependent.
	colSum := make([]float64, s.cols)
	for i := 0; i < s.rows; i++ {
		sc := s.score[i]
		for c, j := range s.idx[i] {
			colSum[j] += sc[c]
		}
	}
	par.Tasks(workers, s.rows, func(i int) {
		sc := s.score[i]
		for c, j := range s.idx[i] {
			if v := colSum[j]; v > 0 {
				sc[c] /= v
			}
		}
	})
}

// updateRow computes row i's next iterate: score'(j) = M(i,j)·U(j) + ε
// for token-matched j, where U = (A₁MA₂)[i,·] restricted to the
// represented entries, then prunes to the candidate budget and
// L1-normalises. A nil return means the row received no signal and the
// caller keeps the previous iterate.
func (sc *scratch) updateRow(i int, s *state, gs, gt *graph.Graph, eps float64, tokenK int) ([]int32, []float64) {
	sc.gen++
	gen := sc.gen

	// Agreement mass per intermediate target node: accV[v] = Σ_{u∈N₁(i)} M(u,v).
	// Neighbor lists are sorted ascending and each (u,v) contributes
	// once, so the accumulation order is independent of row layout.
	vm := sc.vm[:0]
	for _, u := range gs.Neighbors(i) {
		ridx, rsc := s.idx[u], s.score[u]
		for c, v := range ridx {
			if sc.stampV[v] != gen {
				sc.stampV[v] = gen
				sc.accV[v] = 0
				vm = append(vm, v)
			}
			sc.accV[v] += rsc[c]
		}
	}
	sc.vm = vm
	// Second hop in ascending v so U's accumulation order never depends
	// on which neighbor row introduced a column.
	slices.Sort(vm)

	um := sc.um[:0]
	for _, v := range vm {
		a := sc.accV[v]
		for _, j := range gt.Neighbors(int(v)) {
			if sc.stampU[j] != gen {
				sc.stampU[j] = gen
				sc.accU[j] = 0
				um = append(um, j)
			}
			sc.accU[j] += a
		}
	}
	sc.um = um

	// New support: the old row plus the token matches, scored in
	// ascending column order.
	rm := sc.rm[:0]
	osc := s.score[i]
	for c, j := range s.idx[i] {
		sc.stampR[j] = gen
		sc.val[j] = osc[c]
		rm = append(rm, j)
	}
	// Token matches: the tokenK strongest entries of U (ties to the
	// lower column) receive the additive ε, which is what lets a column
	// outside the current support become a candidate.
	for _, j := range sc.tok.pick(um, sc.accU, tokenK) {
		sc.token[j] = gen
		if sc.stampR[j] != gen {
			sc.stampR[j] = gen
			sc.val[j] = 0
			rm = append(rm, j)
		}
	}
	sc.rm = rm
	if len(rm) == 0 {
		return nil, nil
	}
	slices.Sort(rm)

	idx := make([]int32, len(rm))
	copy(idx, rm)
	score := make([]float64, len(rm))
	for c, j := range idx {
		var u float64
		if sc.stampU[j] == gen {
			u = sc.accU[j]
		}
		v := sc.val[j] * u
		if sc.token[j] == gen {
			v += eps
		}
		score[c] = v
	}

	align.SortRowDesc(idx, score)
	if len(idx) > s.k {
		idx, score = idx[:s.k], score[:s.k]
	}
	var sum float64
	for _, v := range score {
		sum += v
	}
	if sum <= 0 {
		return nil, nil
	}
	inv := 1 / sum
	for c := range score {
		score[c] *= inv
	}
	return idx, score
}
