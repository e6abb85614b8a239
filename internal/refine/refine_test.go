package refine

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/htc-align/htc/internal/align"
	"github.com/htc-align/htc/internal/dense"
	"github.com/htc-align/htc/internal/graph"
	"github.com/htc-align/htc/internal/metrics"
)

// testPair builds a source graph and an isomorphic target hiding the
// permutation perm (target node perm[i] plays source node i).
func testPair(n int, p float64, seed int64) (*graph.Graph, *graph.Graph, []int) {
	rng := rand.New(rand.NewSource(seed))
	gs := graph.ErdosRenyi(n, p, rng)
	perm := rng.Perm(n)
	gt := graph.Relabel(gs, perm)
	return gs, gt, perm
}

// noisySim scores the true pair highest in most rows but corrupts a
// fraction of rows so their argmax points at a wrong target — the shape
// of an imperfect aligner's output that refinement should repair.
func noisySim(n int, perm []int, corrupt float64, seed int64) *dense.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := dense.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, 0.1*rng.Float64())
		}
		m.Set(i, perm[i], 1+0.1*rng.Float64())
		if rng.Float64() < corrupt {
			m.Set(i, rng.Intn(n), 2)
		}
	}
	return m
}

// fullTopK wraps the same scores as a candidate-list Sim with k = n —
// the configuration under which the sparse path must be bit-identical
// to the dense one.
func fullTopK(m *dense.Matrix) *align.TopKSim {
	c := &align.Candidates{K: m.Cols, Idx: make([][]int32, m.Rows), Score: make([][]float64, m.Rows)}
	for i := 0; i < m.Rows; i++ {
		idx := make([]int32, m.Cols)
		score := make([]float64, m.Cols)
		for j := 0; j < m.Cols; j++ {
			idx[j] = int32(j)
			score[j] = m.At(i, j)
		}
		align.SortRowDesc(idx, score)
		c.Idx[i] = idx
		c.Score[i] = score
	}
	return &align.TopKSim{C: c, Cols: m.Cols}
}

// refinePair is one graph pair with a noisy input similarity.
type refinePair struct {
	name   string
	gs, gt *graph.Graph
	m      *dense.Matrix
}

// refinePairs covers the graph shapes the two paths must agree on: a
// square ER pair, a sparse ER pair with isolated nodes on both sides
// (rows with no neighbor signal, columns no token can reach, and ties
// in U between leaves of one hub), and a rectangular pair.
func refinePairs(t *testing.T) []refinePair {
	t.Helper()
	gs, gt, perm := testPair(40, 0.12, 3)
	m := noisySim(40, perm, 0.3, 4)
	// Mix in negative scores to exercise the non-negativity shift.
	for i := range m.Data {
		m.Data[i] -= 0.05
	}
	pairs := []refinePair{{"square", gs, gt, m}}

	gs, gt, perm = testPair(60, 0.03, 21)
	isolated := 0
	for i := 0; i < gs.N(); i++ {
		if gs.Degree(i) == 0 {
			isolated++
		}
	}
	if isolated == 0 {
		t.Fatal("the sparse pair has no isolated node")
	}
	pairs = append(pairs, refinePair{"sparse", gs, gt, noisySim(60, perm, 0.3, 22)})

	rng := rand.New(rand.NewSource(23))
	gs, gt = graph.ErdosRenyi(30, 0.15, rng), graph.ErdosRenyi(45, 0.1, rng)
	m = dense.New(30, 45)
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	return append(pairs, refinePair{"rectangular", gs, gt, m})
}

func TestDenseAndFullCandidateListAgreeBitwise(t *testing.T) {
	for _, p := range refinePairs(t) {
		nt := p.gt.N()
		for _, tokenK := range []int{0, 1, 7, nt - 1} {
			for _, workers := range []int{1, 2, 7} {
				name := fmt.Sprintf("%s/tokenK=%d/workers=%d", p.name, tokenK, workers)
				opts := Options{Iters: 4, TokenK: tokenK, Workers: workers}
				dres, err := Refine(align.DenseSim{M: p.m.Clone()}, p.gs, p.gt, opts)
				if err != nil {
					t.Fatal(err)
				}
				sres, err := Refine(fullTopK(p.m), p.gs, p.gt, opts)
				if err != nil {
					t.Fatal(err)
				}
				dm := dres.Sim.(align.DenseSim).M
				for i := 0; i < dm.Rows; i++ {
					for j := 0; j < nt; j++ {
						sv, ok := sres.Sim.At(i, j)
						if !ok {
							t.Fatalf("%s: pair (%d,%d) missing from the full candidate list after refinement", name, i, j)
						}
						if math.Float64bits(sv) != math.Float64bits(dm.At(i, j)) {
							t.Fatalf("%s: refined score (%d,%d): dense %v, candidate list %v", name, i, j, dm.At(i, j), sv)
						}
					}
				}
				for it := range dres.MNC {
					if math.Float64bits(dres.MNC[it]) != math.Float64bits(sres.MNC[it]) {
						t.Fatalf("%s: MNC[%d]: dense %v, candidate list %v", name, it, dres.MNC[it], sres.MNC[it])
					}
				}
			}
		}
	}
}

// TestCandidateRowsBestFirst checks that refined candidate rows keep the
// order align.TopKSim promises: score descending, ties to the lower
// column. The column normalisation reorders a row after its update
// sorted it, so the rows must be put back in order.
func TestCandidateRowsBestFirst(t *testing.T) {
	for _, p := range refinePairs(t) {
		match := make([]int, p.gs.N())
		for i := range match {
			match[i] = i % p.gt.N()
		}
		pruned, err := FromMatching(match, p.gt.N(), 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range []align.Sim{fullTopK(p.m), pruned} {
			res, err := Refine(in, p.gs, p.gt, Options{Iters: 3})
			if err != nil {
				t.Fatal(err)
			}
			c := res.Sim.(*align.TopKSim).C
			for i, idx := range c.Idx {
				sc := c.Score[i]
				for q := 1; q < len(idx); q++ {
					if sc[q] > sc[q-1] || sc[q] == sc[q-1] && idx[q] < idx[q-1] {
						t.Fatalf("%s, k=%d: row %d holds (%d, %v) after (%d, %v)",
							p.name, c.K, i, idx[q], sc[q], idx[q-1], sc[q-1])
					}
				}
			}
		}
	}
}

// TestRowSumBitIdenticalToSort holds the dense path's row sum to a
// comparison-sort reference, bit for bit: sort a copy ascending, then
// add from the largest down. The rows cover lengths around the radix
// digit's 256 buckets and the refined row width, ties, ±0, subnormals,
// negatives, ±Inf, and keys that share every byte but one, so that all
// but one radix pass is skipped. One scratch serves every row, as a
// worker's does.
func TestRowSumBitIdenticalToSort(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	levels := []float64{-1.5, -1e-300, math.Copysign(0, -1), 0, 5e-324, 0.25, 0.25, 3}
	type gen struct {
		name string
		draw func(j int) float64
	}
	gens := []gen{
		{"uniform", func(int) float64 { return rng.Float64() }},
		{"ties", func(int) float64 { return levels[rng.Intn(len(levels))] }},
		{"zeros", func(int) float64 {
			if rng.Intn(2) == 0 {
				return math.Copysign(0, -1)
			}
			return 0
		}},
		{"subnormal", func(int) float64 {
			v := math.Float64frombits(rng.Uint64() & (1<<52 - 1))
			if rng.Intn(3) == 0 {
				v = -v
			}
			return v
		}},
		{"signed", func(int) float64 { return rng.NormFloat64() * math.Exp(20*rng.NormFloat64()) }},
		{"inf", func(int) float64 {
			switch rng.Intn(8) {
			case 0:
				return math.Inf(1)
			case 1:
				return math.Inf(-1)
			}
			return rng.NormFloat64()
		}},
		{"posinf", func(j int) float64 {
			if j%5 == 0 {
				return math.Inf(1)
			}
			return rng.Float64()
		}},
		{"neginf", func(j int) float64 {
			if j%5 == 0 {
				return math.Inf(-1)
			}
			return -rng.Float64()
		}},
	}
	// Keys that differ only in byte d: a base near ±1 with that byte
	// drawn at random. Byte 7 holds the sign and the exponent's top bits,
	// so there it varies only below 0x7f, keeping one sign and finite
	// values.
	for d := 0; d < 8; d++ {
		for _, sign := range []uint64{0, 1 << 63} {
			base := math.Float64bits(1.375) | sign
			gens = append(gens, gen{fmt.Sprintf("byte%d/neg=%v", d, sign != 0), func(int) float64 {
				b := byte(rng.Intn(256))
				if d == 7 {
					b = byte(rng.Intn(0x7f)) | byte(sign>>56)
				}
				return math.Float64frombits(base&^(0xff<<(8*d)) | uint64(b)<<(8*d))
			}})
		}
	}

	sc := &denseScratch{keys: make([]uint64, 1200), tmp: make([]uint64, 1200)}
	ref := make([]float64, 1200)
	for _, g := range gens {
		for _, n := range []int{0, 1, 2, 3, 255, 256, 257, 1200} {
			for trial := 0; trial < 3; trial++ {
				row := make([]float64, n)
				for j := range row {
					row[j] = g.draw(j)
				}
				vals := ref[:n]
				copy(vals, row)
				slices.Sort(vals)
				var want float64
				for k := n - 1; k >= 0; k-- {
					want += vals[k]
				}
				if got := sc.sumDesc(row); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s, n=%d, trial %d: sum %v (%#x), sorted reference %v (%#x)",
						g.name, n, trial, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}

// simSHA256 hashes a Sim's exact bits: a dense matrix row-major, a
// candidate list row by row as its length, then (column, score) pairs.
func simSHA256(s align.Sim) string {
	h := sha256.New()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	switch s := s.(type) {
	case align.DenseSim:
		for _, v := range s.M.Data {
			put(math.Float64bits(v))
		}
	case *align.TopKSim:
		for i, idx := range s.C.Idx {
			put(uint64(len(idx)))
			for c, j := range idx {
				put(uint64(j))
				put(math.Float64bits(s.C.Score[i][c]))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRefinedBitsPinned pins the exact output of both paths. The dense ≡
// candidate-list test alone would pass if both drifted together. The
// constants were computed with the refinement of commit 7a394b9, before
// the dense path was rebuilt; the candidate-list one was re-taken once
// when refined rows were put back in best-first order (an order-free
// digest of every row's (column, score) pairs was equal before and
// after). A change to them is a change to the numerics and must be
// deliberate.
func TestRefinedBitsPinned(t *testing.T) {
	gs, gt, perm := testPair(60, 0.05, 31)
	m := noisySim(60, perm, 0.3, 32)
	dres, err := Refine(align.DenseSim{M: m}, gs, gt, Options{Iters: 3, TokenK: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := simSHA256(dres.Sim), "a29dc56e19a5283c31da48302f2c4786d394bd2a881973018fe1df92ab6714ba"; got != want {
		t.Errorf("dense refinement bits: sha256 %s, want %s", got, want)
	}

	gs, gt, perm = testPair(60, 0.08, 33)
	match := append([]int(nil), perm...)
	rng := rand.New(rand.NewSource(34))
	for i := 0; i < 15; i++ {
		match[rng.Intn(60)] = rng.Intn(60)
	}
	sim, err := FromMatching(match, 60, 8)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := Refine(sim, gs, gt, Options{Iters: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := simSHA256(sres.Sim), "09637541580d1edf8c1dd931741031a0f7febf66d5cd44f1d6d346b8962cd303"; got != want {
		t.Errorf("candidate-list refinement bits: sha256 %s, want %s", got, want)
	}
}

// TestInputsUntouchedAndUnshared refines a dense and a candidate-list
// input, then overwrites every entry of each result: the inputs must
// come through both bit for bit, so the result shares no backing array
// with them.
func TestInputsUntouchedAndUnshared(t *testing.T) {
	p := refinePairs(t)[1]
	din := align.DenseSim{M: p.m.Clone()}
	tin := fullTopK(p.m)
	want := []string{simSHA256(din), simSHA256(tin)}
	for k, in := range []align.Sim{din, tin} {
		res, err := Refine(in, p.gs, p.gt, Options{Iters: 3})
		if err != nil {
			t.Fatal(err)
		}
		if got := simSHA256(in); got != want[k] {
			t.Fatalf("%s input modified by refinement", in.Backend())
		}
		switch s := res.Sim.(type) {
		case align.DenseSim:
			s.M.Fill(math.NaN())
		case *align.TopKSim:
			for i := range s.C.Idx {
				for c := range s.C.Idx[i] {
					s.C.Idx[i][c], s.C.Score[i][c] = -1, math.NaN()
				}
			}
		}
		if got := simSHA256(in); got != want[k] {
			t.Fatalf("%s result shares memory with the input", in.Backend())
		}
	}
}

func TestCancelFromOnIterStopsDensePath(t *testing.T) {
	gs, gt, perm := testPair(30, 0.15, 35)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	res, err := Refine(align.DenseSim{M: noisySim(30, perm, 0.2, 36)}, gs, gt, Options{
		Iters: 3, Ctx: ctx,
		OnIter: func(int, float64) { calls++; cancel() },
	})
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("cancelled refinement returned (%v, %v), want (nil, %v)", res, err, context.Canceled)
	}
	if calls != 1 {
		t.Errorf("OnIter ran %d times after cancelling on the first, want 1", calls)
	}
}

func TestZeroItersReturnsInputUnchanged(t *testing.T) {
	gs, gt, perm := testPair(30, 0.15, 5)
	m := noisySim(30, perm, 0.2, 6)
	in := align.DenseSim{M: m}
	before := append([]float64(nil), m.Data...)

	res, err := Refine(in, gs, gt, Options{Iters: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sim != align.Sim(in) {
		t.Error("0 iterations must return the input Sim itself")
	}
	for i, v := range m.Data {
		if v != before[i] {
			t.Fatalf("0 iterations mutated the input at flat index %d", i)
		}
	}
	if len(res.MNC) != 1 {
		t.Fatalf("0 iterations should report only the initial MNC, got %v", res.MNC)
	}
}

// TestMNCNonDecreasing checks the RefiNA objective climbs across
// iterations. Monotonicity is an empirical property, not a theorem —
// the update is a heuristic ascent — so a decrease of up to 1e-9
// (float renormalisation jitter) is tolerated; real regressions show up
// orders of magnitude larger.
func TestMNCNonDecreasing(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		gs, gt, perm := testPair(60, 0.1, seed)
		m := noisySim(60, perm, 0.35, seed+10)
		res, err := Refine(align.DenseSim{M: m}, gs, gt, Options{Iters: 6})
		if err != nil {
			t.Fatal(err)
		}
		for it := 1; it < len(res.MNC); it++ {
			if res.MNC[it] < res.MNC[it-1]-1e-9 {
				t.Errorf("seed %d: MNC decreased at iteration %d: %v", seed, it, res.MNC)
			}
		}
		if last := res.MNC[len(res.MNC)-1]; last <= res.MNC[0] {
			t.Errorf("seed %d: refinement never improved MNC: %v", seed, res.MNC)
		}
	}
}

func TestRefineImprovesHitsAt1(t *testing.T) {
	gs, gt, perm := testPair(80, 0.1, 7)
	m := noisySim(80, perm, 0.3, 8)
	truth := metrics.FromPerm(perm)

	before := metrics.EvaluateSim(align.DenseSim{M: m}, truth, 1)
	res, err := Refine(align.DenseSim{M: m}, gs, gt, Options{Iters: 5})
	if err != nil {
		t.Fatal(err)
	}
	after := metrics.EvaluateSim(res.Sim, truth, 1)
	if after.PrecisionAt[1] <= before.PrecisionAt[1] {
		t.Errorf("Hits@1 did not improve: %.4f -> %.4f", before.PrecisionAt[1], after.PrecisionAt[1])
	}
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	gs, gt, perm := testPair(50, 0.12, 9)
	m := noisySim(50, perm, 0.3, 10)
	base, err := Refine(fullTopK(m), gs, gt, Options{Iters: 3, TokenK: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 7} {
		got, err := Refine(fullTopK(m), gs, gt, Options{Iters: 3, TokenK: 8, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		bs := base.Sim.(*align.TopKSim)
		gsim := got.Sim.(*align.TopKSim)
		for i := range bs.C.Idx {
			if len(bs.C.Idx[i]) != len(gsim.C.Idx[i]) {
				t.Fatalf("workers=%d: row %d length differs", w, i)
			}
			for c := range bs.C.Idx[i] {
				if bs.C.Idx[i][c] != gsim.C.Idx[i][c] || bs.C.Score[i][c] != gsim.C.Score[i][c] {
					t.Fatalf("workers=%d: row %d entry %d differs", w, i, c)
				}
			}
		}
	}
}

// TestTokenBudgetGrowsSparseSupport verifies the mechanism that makes
// sparse refinement more than a reweighting: a one-hot matching (k-
// budgeted) gains neighbor-supported candidates through token matches.
func TestTokenBudgetGrowsSparseSupport(t *testing.T) {
	gs, gt, perm := testPair(40, 0.15, 11)
	match := make([]int, 40)
	copy(match, perm)
	// Corrupt a quarter of the matching.
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 10; i++ {
		match[rng.Intn(40)] = rng.Intn(40)
	}
	sim, err := FromMatching(match, 40, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Refine(sim, gs, gt, Options{Iters: 3})
	if err != nil {
		t.Fatal(err)
	}
	refined := res.Sim.(*align.TopKSim)
	grew := false
	for i := range refined.C.Idx {
		if len(refined.C.Idx[i]) > 1 {
			grew = true
		}
		if len(refined.C.Idx[i]) > 8 {
			t.Fatalf("row %d exceeded the candidate budget: %d entries", i, len(refined.C.Idx[i]))
		}
	}
	if !grew {
		t.Error("token matches never grew any row beyond its one-hot support")
	}
	if res.MNC[len(res.MNC)-1] <= res.MNC[0] {
		t.Errorf("refining the corrupted matching did not raise MNC: %v", res.MNC)
	}
}

func TestValidation(t *testing.T) {
	gs, gt, perm := testPair(20, 0.2, 13)
	m := noisySim(20, perm, 0, 14)
	sim := align.DenseSim{M: m}
	cases := []struct {
		name string
		sim  align.Sim
		opts Options
	}{
		{"nil sim", nil, Options{Iters: 1}},
		{"negative iters", sim, Options{Iters: -1}},
		{"negative token budget", sim, Options{Iters: 1, TokenK: -2}},
		{"shape mismatch", align.DenseSim{M: dense.New(5, 20)}, Options{Iters: 1}},
	}
	for _, tc := range cases {
		if _, err := Refine(tc.sim, gs, gt, tc.opts); err == nil {
			t.Errorf("%s: expected an error", tc.name)
		}
	}
	if _, err := FromMatching([]int{0, 25}, 20, 4); err == nil {
		t.Error("FromMatching accepted an out-of-range target")
	}
}

func TestMNCPerfectAlignmentIsOne(t *testing.T) {
	gs, gt, perm := testPair(30, 0.2, 15)
	if got := MNC(perm, gs, gt, 1); got != 1 {
		t.Errorf("MNC of the true isomorphism = %v, want 1", got)
	}
	unmatched := make([]int, 30)
	for i := range unmatched {
		unmatched[i] = -1
	}
	if got := MNC(unmatched, gs, gt, 1); got != 0 {
		t.Errorf("MNC of an empty matching = %v, want 0", got)
	}
}
