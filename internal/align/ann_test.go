package align

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/htc-align/htc/internal/ann"
	"github.com/htc-align/htc/internal/dense"
)

// embeddingPair fabricates embedding-like inputs: a random source matrix
// and a target that is the same rows under mild gaussian noise — the
// shape FineTune's candidate generators actually see, where every row
// has a clearly most-similar counterpart plus a tail of moderately
// similar ones.
func embeddingPair(ns, nt, d int, seed int64) (*dense.Matrix, *dense.Matrix) {
	rng := rand.New(rand.NewSource(seed))
	hs := dense.New(ns, d)
	for i := range hs.Data {
		hs.Data[i] = rng.NormFloat64()
	}
	ht := dense.New(nt, d)
	for i := 0; i < nt; i++ {
		src := hs.Row(i % ns)
		dst := ht.Row(i)
		for j := range dst {
			dst[j] = src[j] + 0.25*rng.NormFloat64()
		}
	}
	return hs, ht
}

// TestANNExactnessEscapeHatch: with Probes ≥ 2^Bits the LSH generator
// runs the exact scan of a zero-bits index (the top-k backend), bit for
// bit, across sizes and seeds.
func TestANNExactnessEscapeHatch(t *testing.T) {
	for _, n := range []int{1, 17, 64, 150} {
		for seed := int64(1); seed <= 3; seed++ {
			hs, ht := embeddingPair(n, n, 6, seed)
			k := 12
			if k > n {
				k = n
			}
			exact := exactCandidates(hs, ht, k)
			hatch := (&annScratch{p: ann.Params{Bits: 4, Probes: 1 << 4, Seed: seed}}).topK(hs, ht, k, 2)
			if !reflect.DeepEqual(exact, hatch) {
				t.Fatalf("n=%d seed=%d: full-probe ANN deviates from exact top-k", n, seed)
			}
		}
	}
}

// TestANNRecallProperty sweeps graph sizes and seeds and asserts the
// approximate candidate lists recover ≥ 0.95 of the exact top-k pairs —
// the measured recall-vs-dense metric of the approximate backend, on
// auto-resolved parameters exactly as the pipeline would run them.
func TestANNRecallProperty(t *testing.T) {
	worst := 1.0
	for _, tc := range []struct{ ns, nt, seeds int }{
		// ≤ 1024 rows the auto probe budget covers every bucket (exact);
		// the larger sizes probe 88% and 50% of the buckets respectively.
		{120, 120, 4}, {300, 280, 4}, {600, 600, 4}, {900, 1000, 4},
		{1600, 1500, 2}, {2600, 2800, 2},
	} {
		for seed := int64(1); seed <= int64(tc.seeds); seed++ {
			hs, ht := embeddingPair(tc.ns, tc.nt, 8, seed)
			k := 32
			bits := ann.AutoBits(tc.nt)
			p := ann.Params{Bits: bits, Probes: ann.AutoProbes(bits), Seed: seed}
			exact := exactCandidates(hs, ht, k)
			approx := (&annScratch{p: p}).topK(hs, ht, k, 0)
			rec := candidateRecall(approx, exact)
			if rec < worst {
				worst = rec
			}
			if rec < 0.95 {
				t.Errorf("ns=%d nt=%d seed=%d bits=%d probes=%d: recall %.4f < 0.95",
					tc.ns, tc.nt, seed, p.Bits, p.Probes, rec)
			}
		}
	}
	t.Logf("worst-case ANN candidate recall vs exact top-k: %.4f", worst)
}

// TestANNRecallApproximatePath pins the genuinely approximate regime —
// probe counts well below the bucket count — where recall comes from the
// margin-ordered multi-probe sequence rather than exhaustive coverage.
func TestANNRecallApproximatePath(t *testing.T) {
	hs, ht := embeddingPair(5000, 5000, 8, 3)
	k := 32
	p := ann.Params{Bits: 9, Probes: 144, Seed: 3} // 144 of 512 buckets
	exact := exactCandidates(hs, ht, k)
	approx := (&annScratch{p: p}).topK(hs, ht, k, 2)
	rec := candidateRecall(approx, exact)
	t.Logf("approximate-path recall (144/512 buckets probed): %.4f", rec)
	if rec < 0.95 {
		t.Errorf("recall %.4f < 0.95 on the approximate path", rec)
	}
	if p.Exact() {
		t.Fatal("test misconfigured: probes cover every bucket")
	}
}

// skewEmbeddings fabricates GCN-collapse-shaped embeddings: every row is
// ±√(1−ρ²)·v for one shared dominant direction v plus a ρ-scaled unit
// residual from a rank-r subspace orthogonal to v. Raw SRP codes of such
// rows pile into a few hot buckets; the ranking signal lives in the
// residuals. Source and target share v and the subspace, like the two
// sides of one fine-tune iteration.
func skewEmbeddings(ns, nt, d, r int, rho float64, seed int64) (*dense.Matrix, *dense.Matrix) {
	rng := rand.New(rand.NewSource(seed))
	basis := make([][]float64, r+1)
	for b := range basis {
		u := make([]float64, d)
		for j := range u {
			u[j] = rng.NormFloat64()
		}
		for _, prev := range basis[:b] {
			var p float64
			for j := range u {
				p += u[j] * prev[j]
			}
			for j := range u {
				u[j] -= p * prev[j]
			}
		}
		var nrm float64
		for _, x := range u {
			nrm += x * x
		}
		nrm = 1 / math.Sqrt(nrm)
		for j := range u {
			u[j] *= nrm
		}
		basis[b] = u
	}
	v := basis[0]
	a := math.Sqrt(1 - rho*rho)
	w := make([]float64, r)
	gen := func(rows int) *dense.Matrix {
		m := dense.New(rows, d)
		for i := 0; i < rows; i++ {
			c := a
			if rng.Intn(2) == 1 {
				c = -a
			}
			var nw float64
			for l := range w {
				w[l] = rng.NormFloat64()
				nw += w[l] * w[l]
			}
			nw = 1 / math.Sqrt(nw)
			row := m.Row(i)
			for j := range row {
				row[j] = c * v[j]
				for l, u := range basis[1:] {
					row[j] += rho * w[l] * nw * u[j]
				}
			}
		}
		return m
	}
	return gen(nt), gen(ns)
}

// TestANNSkewBalancedPoolAndRecall is the align-level skew property,
// swept across sizes and seeds: on collapse-skewed embeddings the
// balanced index gathers ≥ 5× fewer pool rows per query than the
// unbalanced index at equal bits/probes, while candidateRecall against
// the exact top-k stays ≥ 0.95.
func TestANNSkewBalancedPoolAndRecall(t *testing.T) {
	for _, tc := range []struct {
		n    int
		seed int64
	}{
		{5000, 63}, {6000, 64},
	} {
		hs, ht := skewEmbeddings(tc.n, tc.n, 16, 4, 0.2, tc.seed)
		k := 16
		p := ann.Params{Bits: 11, Probes: 48, Seed: 23}
		exact := exactCandidates(hs, ht, k)
		bal := &annScratch{p: p}
		approx := bal.topK(hs, ht, k, 0)
		pu := p
		pu.Unbalanced = true
		unb := &annScratch{p: pu}
		unb.topK(hs, ht, k, 0)
		mb, mu := bal.stats().PoolRowsMean(), unb.stats().PoolRowsMean()
		if mb <= 0 || mu <= 0 {
			t.Fatalf("n=%d: pool stats missing (balanced %.1f, unbalanced %.1f)", tc.n, mb, mu)
		}
		if mu < 5*mb {
			t.Errorf("n=%d seed=%d: unbalanced mean pool %.1f not >= 5x balanced %.1f",
				tc.n, tc.seed, mu, mb)
		}
		if rec := candidateRecall(approx, exact); rec < 0.95 {
			t.Errorf("n=%d seed=%d: balanced recall on skewed embeddings %.4f < 0.95",
				tc.n, tc.seed, rec)
		}
	}
}

// candidateRecall measures how much of the exact candidate set an
// approximate one recovered: the fraction of (query, candidate) pairs of
// `want` also present in `got`, pooled over all queries. 1.0 means every
// exact top-k candidate survived the pruning.
func candidateRecall(got, want *Candidates) float64 {
	seen := make(map[int32]bool)
	var hit, total int
	for i, wantRow := range want.Idx {
		clear(seen)
		if i < len(got.Idx) {
			for _, j := range got.Idx[i] {
				seen[j] = true
			}
		}
		for _, j := range wantRow {
			total++
			if seen[j] {
				hit++
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(hit) / float64(total)
}

// TestCandidateRecall pins the metric itself.
func TestCandidateRecall(t *testing.T) {
	want := &Candidates{K: 2, Idx: [][]int32{{1, 2}, {3, 4}}, Score: [][]float64{{1, 1}, {1, 1}}}
	got := &Candidates{K: 2, Idx: [][]int32{{2, 9}, {3, 4}}, Score: [][]float64{{1, 1}, {1, 1}}}
	if rec := candidateRecall(got, want); rec != 0.75 {
		t.Fatalf("recall = %v, want 0.75", rec)
	}
	if rec := candidateRecall(want, want); rec != 1 {
		t.Fatalf("self recall = %v, want 1", rec)
	}
	empty := &Candidates{}
	if rec := candidateRecall(empty, empty); rec != 1 {
		t.Fatalf("empty recall = %v, want 1", rec)
	}
}

// TestFineTuneANNExactMatchesTopK: the full fine-tuning loop under a
// full-probe ANN generator reproduces the exact top-k loop bit for bit —
// Sim contents, trusted-pair counts, iteration counts.
func TestFineTuneANNExactMatchesTopK(t *testing.T) {
	gs, gt, _ := buildAlignedPair(30, 21)
	enc, src, tgt := trainEncoder(gs, gt, 2, 22)

	base := FineTuneConfig{M: 5, Beta: 1.1, MaxIters: 4, TopK: 10, Workers: 2}
	exact := FineTune(enc, src.Laps[0], tgt.Laps[0], src.X, tgt.X, base)

	annCfg := base
	annCfg.Ann = ann.Params{Bits: 4, Probes: 1 << 4, Seed: 1}
	hatch := FineTune(enc, src.Laps[0], tgt.Laps[0], src.X, tgt.X, annCfg)

	if exact.Trusted != hatch.Trusted || exact.Iters != hatch.Iters {
		t.Fatalf("loop outcomes differ: trusted %d vs %d, iters %d vs %d",
			exact.Trusted, hatch.Trusted, exact.Iters, hatch.Iters)
	}
	es, hs := exact.Sim.(*TopKSim), hatch.Sim.(*TopKSim)
	if !reflect.DeepEqual(es.C, hs.C) || es.Cols != hs.Cols {
		t.Fatal("full-probe ANN fine-tuning deviates from the exact top-k loop")
	}
}

// TestTiedScoresAgreeAcrossBackends pins the tie rule of the candidate
// lists. The target side repeats 8 distinct embedding rows 5 times, so
// every query scores each group of copies exactly equal. On both
// precision tiers a zero-bits index (the top-k backend) and a full-probe
// ANN index must agree entry for entry, scores must descend, and tied
// columns must come in ascending order.
func TestTiedScoresAgreeAcrossBackends(t *testing.T) {
	const distinct, copies, d = 8, 5, 6
	rng := rand.New(rand.NewSource(3))
	base := randomEmbeddings(distinct, d, rng)
	ht := dense.New(distinct*copies, d)
	for i := 0; i < ht.Rows; i++ {
		copy(ht.Row(i), base.Row(i%distinct))
	}
	hs := randomEmbeddings(10, d, rng)
	p := ann.Params{Bits: 4, Probes: 1 << 4, Seed: 1}
	p32 := p
	p32.F32 = true
	for _, k := range []int{3, 7, 12, 40} {
		var ts annScratch
		ts32 := annScratch{p: ann.Params{F32: true}}
		tiers := [][2]*Candidates{
			{ts.topK(hs, ht, k, 2), (&annScratch{p: p}).topK(hs, ht, k, 2)},
			{ts32.topK(hs, ht, k, 2), (&annScratch{p: p32}).topK(hs, ht, k, 2)},
		}
		for tier, c := range tiers {
			if !reflect.DeepEqual(c[0], c[1]) {
				t.Fatalf("k=%d tier %d: full-probe ANN deviates from the zero-bits index", k, tier)
			}
			ties := 0
			for i, idx := range c[0].Idx {
				score := c[0].Score[i]
				for q := 1; q < len(idx); q++ {
					switch {
					case score[q] > score[q-1]:
						t.Fatalf("k=%d tier %d row %d: scores ascend at slot %d", k, tier, i, q)
					case score[q] == score[q-1]:
						ties++
						if idx[q] <= idx[q-1] {
							t.Fatalf("k=%d tier %d row %d: tied columns %d, %d out of order", k, tier, i, idx[q-1], idx[q])
						}
					}
				}
			}
			if ties == 0 {
				t.Fatalf("k=%d tier %d: no tied scores, the test pins nothing", k, tier)
			}
			t.Logf("k=%d tier %d: %d ties", k, tier, ties)
		}
	}
}
