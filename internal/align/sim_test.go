package align

import (
	"math/rand"
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
		sortRowDesc(idx, score)
		c.Idx[i] = idx
		c.Score[i] = score
	}
	return &TopKSim{C: c, Cols: m.Cols}
}

// topKLISISim runs the sparse fine-tune scoring step at candidate count k:
// forward/backward candidates, hubness estimates, LISI transform.
func topKLISISim(hs, ht *dense.Matrix, k, m int) (*TopKSim, [][2]int) {
	var fs, bs topkScratch
	fwd := fs.topK(hs, ht, k, 0)
	bwd := bs.topK(ht, hs, k, 0)
	dt := topMeansInto(nil, fwd, m)
	ds := topMeansInto(nil, bwd, m)
	pairs := trustedPairsCands(fwd, bwd, dt, ds)
	lisiTransform(fwd, dt, ds)
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

		denseLISI := LISI(Corr(hs, ht), m)
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
		if MatchScore(m, dm) != MatchScoreSim(fullTopKSim(m), tm) {
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
	var s1, s4 topkScratch
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
