package align

import (
	"reflect"
	"testing"

	"github.com/htc-align/htc/internal/ann"
)

// TestF32FullProbeANNMatchesTopK32: the float32 tier carries the
// exactness escape hatch — with Probes ≥ 2^Bits the f32 LSH index runs
// the exact scan of a zero-bits f32 index (the top-k backend), bit for
// bit, across sizes and seeds.
func TestF32FullProbeANNMatchesTopK32(t *testing.T) {
	for _, n := range []int{1, 17, 64, 150} {
		for seed := int64(1); seed <= 3; seed++ {
			hs, ht := embeddingPair(n, n, 6, seed)
			k := 12
			if k > n {
				k = n
			}
			ts := annScratch{p: ann.Params{F32: true}}
			exact := ts.topK(hs, ht, k, 2)
			as := &annScratch{p: ann.Params{Bits: 4, Probes: 1 << 4, Seed: seed, F32: true}}
			hatch := as.topK(hs, ht, k, 2)
			if !reflect.DeepEqual(exact, hatch) {
				t.Fatalf("n=%d seed=%d: full-probe f32 ANN deviates from f32 top-k", n, seed)
			}
			// The tier's contract: every score is a float32 value.
			for _, c := range []*Candidates{exact, hatch} {
				for i, row := range c.Score {
					for q, s := range row {
						if float64(float32(s)) != s {
							t.Fatalf("n=%d seed=%d row %d slot %d: score %v is not a float32 value", n, seed, i, q, s)
						}
					}
				}
			}
		}
	}
}

// TestANNRecallPropertyF32 is the float32 face of TestANNRecallProperty:
// across sizes and seeds, the f32 ANN candidate lists recover ≥ 0.95 of
// the f32 exact top-k pairs on auto-resolved parameters.
func TestANNRecallPropertyF32(t *testing.T) {
	worst := 1.0
	for _, tc := range []struct{ ns, nt, seeds int }{
		{120, 120, 4}, {300, 280, 4}, {600, 600, 4}, {900, 1000, 4},
		{1600, 1500, 2}, {2600, 2800, 2},
	} {
		for seed := int64(1); seed <= int64(tc.seeds); seed++ {
			hs, ht := embeddingPair(tc.ns, tc.nt, 8, seed)
			k := 32
			bits := ann.AutoBits(tc.nt)
			ts := annScratch{p: ann.Params{F32: true}}
			exact := ts.topK(hs, ht, k, 0)
			as := &annScratch{p: ann.Params{Bits: bits, Probes: ann.AutoProbes(bits), Seed: seed, F32: true}}
			approx := as.topK(hs, ht, k, 0)
			rec := candidateRecall(approx, exact)
			if rec < worst {
				worst = rec
			}
			if rec < 0.95 {
				t.Errorf("ns=%d nt=%d seed=%d bits=%d: f32 recall %.4f < 0.95",
					tc.ns, tc.nt, seed, bits, rec)
			}
		}
	}
	t.Logf("worst-case f32 ANN candidate recall vs f32 exact top-k: %.4f", worst)
}

// TestTopK32RecallVsF64: rounding embeddings to float32 must not disturb
// which candidates make the top-k lists in any material way — the f32 and
// f64 exact scans agree on ≥ 0.95 of the pairs (they differ only where
// float32 rounding swaps near-ties at the list boundary).
func TestTopK32RecallVsF64(t *testing.T) {
	for _, n := range []int{150, 600} {
		for seed := int64(1); seed <= 3; seed++ {
			hs, ht := embeddingPair(n, n, 8, seed)
			k := 16
			var f64s annScratch
			f32s := annScratch{p: ann.Params{F32: true}}
			exact := f64s.topK(hs, ht, k, 2)
			half := f32s.topK(hs, ht, k, 2)
			if rec := candidateRecall(half, exact); rec < 0.95 {
				t.Errorf("n=%d seed=%d: f32 top-k recall vs f64 %.4f < 0.95", n, seed, rec)
			}
		}
	}
}

// TestFineTuneF32Runs: the fine-tuning loop works end to end on the f32
// tier under both candidate generators, producing a usable Sim and (on
// the ANN generator) the merged stats block.
func TestFineTuneF32Runs(t *testing.T) {
	gs, gt, _ := buildAlignedPair(30, 21)
	enc, src, tgt := trainEncoder(gs, gt, 2, 22)

	base := FineTuneConfig{M: 5, Beta: 1.1, MaxIters: 4, TopK: 10, Workers: 2, Ann: ann.Params{F32: true}}
	res := FineTune(enc, src.Laps[0], tgt.Laps[0], src.X, tgt.X, base)
	if res.Sim == nil || res.Trusted < 0 {
		t.Fatalf("f32 top-k loop produced no result: %+v", res)
	}
	if res.AnnStats != nil {
		t.Fatal("top-k loop reported ANN stats")
	}

	annCfg := base
	annCfg.Ann = ann.Params{Bits: 4, Probes: 1 << 4, Seed: 1, F32: true}
	annRes := FineTune(enc, src.Laps[0], tgt.Laps[0], src.X, tgt.X, annCfg)
	if annRes.Sim == nil {
		t.Fatal("f32 ANN loop produced no Sim")
	}
	// Full-probe parameters take the exact path (no hashing), so the
	// stats block records query-side work only.
	if annRes.AnnStats == nil || annRes.AnnStats.Queries <= 0 {
		t.Fatalf("f32 ANN loop reported no stats: %+v", annRes.AnnStats)
	}
	// The full-probe f32 ANN loop must reproduce the f32 top-k loop
	// bit for bit, like the f64 tiers do for each other.
	es, hs := res.Sim.(*TopKSim), annRes.Sim.(*TopKSim)
	if res.Trusted != annRes.Trusted || !reflect.DeepEqual(es.C, hs.C) {
		t.Fatal("full-probe f32 ANN fine-tuning deviates from the f32 top-k loop")
	}
}
