package refine

import (
	"math"
	"slices"

	"github.com/htc-align/htc/internal/align"
	"github.com/htc-align/htc/internal/dense"
	"github.com/htc-align/htc/internal/graph"
	"github.com/htc-align/htc/internal/par"
	"github.com/htc-align/htc/internal/sparse"
)

// denseState is the dense path's iterate: three n×n buffers allocated
// once per call. m is the current iterate, t holds T = A₁·M, and u is
// where the next iterate is formed before it swaps with m. Until
// softAssignRows runs, m is the caller's matrix and only read.
type denseState struct {
	m, t, u *dense.Matrix
	a1, a2  *sparse.CSR
	// tcols lists the columns with a target neighbor: the token set
	// when it fits the budget.
	tcols   []int32
	colSum  []float64
	scratch []*denseScratch
}

// denseScratch is one worker's row buffers.
type denseScratch struct {
	vals  []float64   // a copy of the row, sorted for its L1 sum
	tok   tokenPicker // token choice
	token []int       // stamp marking the row's token columns
	gen   int
}

func (d *denseState) softAssignRows() {
	d.m = d.m.Clone()
	logC := math.Log(float64(d.m.Cols))
	for i := 0; i < d.m.Rows; i++ {
		softAssign(d.m.Row(i), logC)
	}
}

func (d *denseState) toSim() align.Sim { return align.DenseSim{M: d.m} }

func (d *denseState) argmaxRows(workers int) []int {
	out := make([]int, d.m.Rows)
	par.Tasks(workers, d.m.Rows, func(i int) {
		best := -1
		var bestScore float64
		for j, v := range d.m.Row(i) {
			if best < 0 || v > bestScore {
				best, bestScore = j, v
			}
		}
		out[i] = best
	})
	return out
}

// alloc sets up what every step shares: the T and U buffers, both
// adjacency matrices, the token columns and per-worker scratch.
func (d *denseState) alloc(gs, gt *graph.Graph, workers int) {
	rows, cols := d.m.Rows, d.m.Cols
	d.t, d.u = dense.New(rows, cols), dense.New(rows, cols)
	d.a1, d.a2 = gs.Adjacency(), gt.Adjacency()
	for j := 0; j < cols; j++ {
		if d.a2.RowPtr[j+1] > d.a2.RowPtr[j] {
			d.tcols = append(d.tcols, int32(j))
		}
	}
	d.colSum = make([]float64, cols)
	d.scratch = make([]*denseScratch, par.Resolve(workers))
}

// step runs one RefiNA iteration, M ← norm(M ⊙ A₁MA₂ + ε), adding in
// the candidate path's orders so the two paths stay bit-identical:
// T[i,v] sums M over N₁(i) in ascending order, U[i,j] sums T[i,·] over
// N₂(j) in ascending order (A₂ is symmetric), and each row's L1 sum
// runs best-first.
func (d *denseState) step(gs, gt *graph.Graph, eps float64, tokenK, workers int) {
	if d.t == nil {
		d.alloc(gs, gt, workers)
	}
	rows, cols := d.m.Rows, d.m.Cols
	d.a1.MulDenseInto(d.t, d.m, workers)
	rp, ci := d.a2.RowPtr, d.a2.ColIdx
	par.Sharded(workers, rows, func(w, i int) {
		sc := d.scratch[w]
		if sc == nil {
			sc = &denseScratch{vals: make([]float64, cols), token: make([]int, cols)}
			d.scratch[w] = sc
		}
		mi, ui := d.m.Row(i), d.u.Row(i)
		if gs.Degree(i) == 0 {
			// An isolated source node receives no neighbor signal.
			copy(ui, mi)
			return
		}
		ti := d.t.Row(i)
		for j := range ui {
			var s float64
			for _, v := range ci[rp[j]:rp[j+1]] {
				s += ti[v]
			}
			ui[j] = s
		}

		// Token matches: every column U can reach, or its tokenK
		// strongest (ties to the lower column) when the budget is
		// smaller.
		sc.gen++
		for _, j := range sc.tok.pick(d.tcols, ui, tokenK) {
			sc.token[j] = sc.gen
		}
		for j, u := range ui {
			v := mi[j] * u
			if sc.token[j] == sc.gen {
				v += eps
			}
			ui[j] = v
		}

		copy(sc.vals, ui)
		slices.Sort(sc.vals)
		var sum float64
		for k := cols - 1; k >= 0; k-- {
			sum += sc.vals[k]
		}
		if sum <= 0 {
			copy(ui, mi)
			return
		}
		inv := 1 / sum
		for j := range ui {
			ui[j] *= inv
		}
	})

	d.normalizeColumns(workers)
	d.m, d.u = d.u, d.m
}

// normalizeColumns L1-normalises the columns of U, the sums accumulated
// serially in ascending row order as on the candidate path.
func (d *denseState) normalizeColumns(workers int) {
	clear(d.colSum)
	for i := 0; i < d.u.Rows; i++ {
		for j, v := range d.u.Row(i) {
			d.colSum[j] += v
		}
	}
	par.Tasks(workers, d.u.Rows, func(i int) {
		row := d.u.Row(i)
		for j, v := range d.colSum {
			if v > 0 {
				row[j] /= v
			}
		}
	})
}
