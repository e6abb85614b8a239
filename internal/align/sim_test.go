package align

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/htc-align/htc/internal/dense"
)

// fullTopKSim wraps a dense score matrix as a top-k representation with
// k = cols, i.e. every pair is a candidate — the regime where the two
// backends must agree bit-for-bit.
func fullTopKSim(m *dense.Matrix) *TopKSim {
	c := &Candidates{K: m.Cols, Idx: make([][]int32, m.Rows), Score: make([][]float64, m.Rows)}
	for i := 0; i < m.Rows; i++ {
		idx := make([]int32, m.Cols)
		score := make([]float64, m.Cols)
		for j := range idx {
			idx[j] = int32(j)
		}
		copy(score, m.Row(i))
		SortRowDesc(idx, score)
		c.Idx[i] = idx
		c.Score[i] = score
	}
	return &TopKSim{C: c, Cols: m.Cols}
}

// topKLISISim runs the sparse fine-tune scoring step at candidate count k:
// forward/backward candidates, hubness estimates, LISI transform.
func topKLISISim(hs, ht *dense.Matrix, k, m int) (*TopKSim, [][2]int) {
	fwd := exactCandidates(hs, ht, k)
	bwd := exactCandidates(ht, hs, k)
	pairs := (&candLISI{}).pairs(fwd, bwd, m)
	return &TopKSim{C: fwd, Cols: ht.Rows}, pairs
}

// TestTopKLISIFullEqualsDense: at k = n the sparse LISI representation
// must reproduce the dense LISI(Corr) matrix bit-for-bit, pair by pair,
// including the trusted-pair set and the per-row argmax.
func TestTopKLISIFullEqualsDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ns, nt, d := 2+rng.Intn(14), 2+rng.Intn(14), 2+rng.Intn(5)
		hs := randomEmbeddings(ns, d, rng)
		ht := randomEmbeddings(nt, d, rng)
		m := 1 + rng.Intn(6)

		denseLISI := new(simScratch).lisiInto(new(simScratch).corrInto(hs, ht, 0), m, 0)
		k := nt
		if ns > k {
			k = ns
		}
		sparse, sparsePairs := topKLISISim(hs, ht, k, m)

		for i := 0; i < ns; i++ {
			for j := 0; j < nt; j++ {
				got, ok := sparse.At(i, j)
				if !ok || got != denseLISI.At(i, j) {
					t.Logf("seed %d: (%d,%d) sparse %v (ok=%v) dense %v", seed, i, j, got, ok, denseLISI.At(i, j))
					return false
				}
			}
		}
		densePairs := TrustedPairs(denseLISI)
		if len(sparsePairs) != len(densePairs) {
			return false
		}
		for i := range densePairs {
			if sparsePairs[i] != densePairs[i] {
				return false
			}
		}
		densePred := denseLISI.ArgmaxRows()
		for i, p := range sparse.Predict() {
			if p != densePred[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestIntegrateSimsFullEqualsDense: integrating full top-k sims must
// reproduce the dense Integrate bit-for-bit (same accumulation order).
func TestIntegrateSimsFullEqualsDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 2+rng.Intn(10), 2+rng.Intn(10)
		orbits := 1 + rng.Intn(4)
		ms := make([]*dense.Matrix, orbits)
		dsims := make([]Sim, orbits)
		tsims := make([]Sim, orbits)
		trusted := make([]int, orbits)
		for k := range ms {
			ms[k] = randomEmbeddings(rows, cols, rng)
			dsims[k] = DenseSim{M: ms[k]}
			tsims[k] = fullTopKSim(ms[k])
			trusted[k] = rng.Intn(5)
		}
		dres, dg := IntegrateSims(dsims, trusted)
		tres, tg := IntegrateSims(tsims, trusted)
		for k := range dg {
			if dg[k] != tg[k] {
				return false
			}
		}
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				dv, _ := dres.At(i, j)
				tv, ok := tres.At(i, j)
				if !ok || dv != tv {
					return false
				}
			}
		}
		dp, tp := dres.Predict(), tres.Predict()
		for i := range dp {
			if dp[i] != tp[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestGreedyMatchSimFullEqualsDense: the candidate-aware greedy matcher
// at k = cols must produce exactly the dense matching (shared tie rules).
func TestGreedyMatchSimFullEqualsDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(12), 1+rng.Intn(12)
		m := randomEmbeddings(rows, cols, rng)
		dm := GreedyMatch(m)
		tm := GreedyMatchSim(fullTopKSim(m))
		for i := range dm {
			if dm[i] != tm[i] {
				return false
			}
		}
		if matchScore(m, dm) != matchScoreSim(fullTopKSim(m), tm) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestGreedyMatchDeterministicTies: with every score equal, the greedy
// matcher must resolve ties to the identity prefix on both backends.
func TestGreedyMatchDeterministicTies(t *testing.T) {
	m := dense.New(3, 4)
	m.Fill(1)
	want := []int{0, 1, 2}
	for name, got := range map[string][]int{
		"dense": GreedyMatch(m),
		"topk":  GreedyMatchSim(fullTopKSim(m)),
	} {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: match = %v, want identity prefix", name, got)
			}
		}
	}
}

// TestGreedyMatchSimPartialCandidates: with k = 1 every source competes
// for its single candidate; losers stay unmatched rather than matching a
// pair the representation never scored.
func TestGreedyMatchSimPartialCandidates(t *testing.T) {
	c := &Candidates{
		K:     1,
		Idx:   [][]int32{{0}, {0}},
		Score: [][]float64{{0.9}, {0.5}},
	}
	got := GreedyMatchSim(&TopKSim{C: c, Cols: 3})
	if got[0] != 0 || got[1] != -1 {
		t.Fatalf("match = %v, want [0 -1]", got)
	}
}

// TestFineTuneTopKFullEqualsDense: the whole refinement loop run under
// the top-k backend at k = n must reproduce the dense loop exactly —
// trusted counts, iteration counts and every represented score.
func TestFineTuneTopKFullEqualsDense(t *testing.T) {
	gs, gt, _ := buildAlignedPair(26, 11)
	enc, src, tgt := trainEncoder(gs, gt, 2, 12)

	base := FineTuneConfig{M: 5, Beta: 1.1, MaxIters: 6}
	dres := FineTune(enc, src.Laps[0], tgt.Laps[0], src.X, tgt.X, base)

	topk := base
	topk.TopK = 26
	tres := FineTune(enc, src.Laps[0], tgt.Laps[0], src.X, tgt.X, topk)

	if dres.Trusted != tres.Trusted || dres.Iters != tres.Iters {
		t.Fatalf("dense (trusted=%d iters=%d) vs topk (trusted=%d iters=%d)",
			dres.Trusted, dres.Iters, tres.Trusted, tres.Iters)
	}
	if tres.Sim.Backend() != BackendTopK || dres.Sim.Backend() != BackendDense {
		t.Fatalf("backends %q / %q", dres.Sim.Backend(), tres.Sim.Backend())
	}
	rows, cols := dres.Sim.Dims()
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			dv, _ := dres.Sim.At(i, j)
			tv, ok := tres.Sim.At(i, j)
			if !ok || dv != tv {
				t.Fatalf("(%d,%d): dense %v, topk %v (ok=%v)", i, j, dv, tv, ok)
			}
		}
	}
}

// TestTopKSimDense: materialising a sparse sim floors absent pairs below
// every candidate score.
func TestTopKSimDense(t *testing.T) {
	c := &Candidates{
		K:     2,
		Idx:   [][]int32{{2, 0}},
		Score: [][]float64{{-0.25, -0.5}},
	}
	m := (&TopKSim{C: c, Cols: 4}).Dense()
	if m.At(0, 2) != -0.25 || m.At(0, 0) != -0.5 {
		t.Fatalf("candidate scores not preserved: %v", m.Data)
	}
	for _, j := range []int{1, 3} {
		if m.At(0, j) >= -0.5 {
			t.Fatalf("absent pair (0,%d) = %v not floored below candidates", j, m.At(0, j))
		}
	}
	if m.ArgmaxRows()[0] != 2 {
		t.Fatalf("argmax over materialised matrix = %d, want 2", m.ArgmaxRows()[0])
	}
}

// TestTopKCandidatesWorkersIdentical: the block fan-out must be a pure
// performance knob — every worker count yields the same candidates.
func TestTopKCandidatesWorkersIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	hs := randomEmbeddings(300, 5, rng)
	ht := randomEmbeddings(90, 5, rng)
	var s1, s4 annScratch
	a := s1.topK(hs, ht, 7, 1)
	b := s4.topK(hs, ht, 7, 4)
	for i := range a.Idx {
		for c := range a.Idx[i] {
			if a.Idx[i][c] != b.Idx[i][c] || a.Score[i][c] != b.Score[i][c] {
				t.Fatalf("row %d cand %d differs across worker counts", i, c)
			}
		}
	}
}

// refRow is the sort.Interface comparator SortRowDesc replaced, kept as
// the reference order: descending score, ties by ascending column.
type refRow struct {
	idx   []int32
	score []float64
}

func (r refRow) Len() int { return len(r.idx) }
func (r refRow) Less(a, b int) bool {
	if r.score[a] != r.score[b] {
		return r.score[a] > r.score[b]
	}
	return r.idx[a] < r.idx[b]
}
func (r refRow) Swap(a, b int) {
	r.idx[a], r.idx[b] = r.idx[b], r.idx[a]
	r.score[a], r.score[b] = r.score[b], r.score[a]
}

// TestSortRowDescMatchesReference: on random rows of distinct columns,
// at every length from 0 to 300 (insertion sort up to 12 entries,
// heapsort beyond), SortRowDesc gives sort.Sort's order under the
// reference comparator. Scores are drawn from few levels, so most rows
// hold ties, including +0 against -0, which only the column breaks.
func TestSortRowDescMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 0; n <= 300; n++ {
		for rep := 0; rep < 4; rep++ {
			idx := make([]int32, n)
			score := make([]float64, n)
			for i, j := range rng.Perm(2*n + 1)[:n] {
				idx[i] = int32(j)
			}
			levels := 1 + rng.Intn(n+1)
			for i := range score {
				score[i] = float64(rng.Intn(levels)-levels/2) / 4
				if score[i] == 0 && rng.Intn(2) == 0 {
					score[i] = math.Copysign(0, -1)
				}
			}
			want := refRow{append([]int32(nil), idx...), append([]float64(nil), score...)}
			sort.Sort(want)
			SortRowDesc(idx, score)
			for i := range idx {
				if idx[i] != want.idx[i] || math.Float64bits(score[i]) != math.Float64bits(want.score[i]) {
					t.Fatalf("n=%d rep=%d entry %d: (%d, %v), want (%d, %v)", n, rep, i, idx[i], score[i], want.idx[i], want.score[i])
				}
			}
		}
	}
}

// TestSortRowDescAllocatesNothing: sorting a 16-entry row allocates
// nothing (the boxed sort.Interface it replaced allocated once a call).
func TestSortRowDescAllocatesNothing(t *testing.T) {
	idx := make([]int32, 16)
	score := make([]float64, 16)
	allocs := testing.AllocsPerRun(100, func() {
		for i := range idx {
			idx[i], score[i] = int32(i), float64(i%5)
		}
		SortRowDesc(idx, score)
	})
	if allocs != 0 {
		t.Fatalf("SortRowDesc allocates %v times per call, want 0", allocs)
	}
}
