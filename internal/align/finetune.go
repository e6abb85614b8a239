package align

import (
	"context"

	"github.com/htc-align/htc/internal/ann"
	"github.com/htc-align/htc/internal/dense"
	"github.com/htc-align/htc/internal/nn"
	"github.com/htc-align/htc/internal/sparse"
)

// FineTuneConfig controls the trusted-pair based refinement loop.
type FineTuneConfig struct {
	// M is the neighbourhood size of the hubness estimate (paper: 20).
	M int
	// Beta is the reinforcement rate β > 1 applied to the aggregation
	// coefficients of trusted nodes (paper: 1.1).
	Beta float64
	// MaxIters caps the refinement loop as a safety net; Algorithm 2's
	// natural termination (no growth in trusted pairs) usually fires
	// first. Zero means the default of 30.
	MaxIters int
	// KnownPairs are anchor links known a priori. Proposition 2 covers
	// "trusted (or known) anchor nodes" uniformly: known anchors are
	// reinforced before the first iteration, seeding the discovery of
	// potential anchors around them (the semi-supervised HTC-S mode).
	KnownPairs [][2]int
	// Workers bounds the goroutine fan-out of the embedding and
	// similarity kernels inside this orbit's loop (≤ 0 = GOMAXPROCS).
	// When the pipeline fine-tunes many orbits concurrently it hands each
	// orbit a slice of the budget; results are identical for every count.
	Workers int
	// TopK selects the similarity backend: 0 runs the dense ns×nt path;
	// k ≥ 1 runs the top-k candidate path, holding O(n·k) scores instead
	// of O(n²). Its candidates come from an internal/ann index, which
	// with zero Ann params is the exact blocked scan. With k ≥ nt (and
	// k ≥ ns for the backward direction) the two backends are
	// bit-identical; smaller k trades exactness for bounded memory.
	TopK int
	// Ann parameterises that index (with TopK ≥ 1). Positive Bits make
	// it the LSH generator: compute drops from O(ns·nt) score cells to
	// hashing plus an exact re-rank of each node's probed pool.
	// Everything downstream — hubness, LISI, trusted pairs, integration —
	// runs unchanged on the candidate lists, and with Probes ≥ 2^Bits
	// the index runs the exact scan of zero Params. Index statistics are
	// reported only when Bits are positive. Ann.F32 selects the float32
	// precision tier: each iteration's centered, normalised embedding
	// copies are rounded to float32, and so is every candidate score.
	// The dense backend has no float32 tier (core validation rejects the
	// combination before it gets here).
	Ann ann.Params
	// KeepEmbeddings snapshots the best iteration's Hs/Ht into the
	// result. Off by default: the copies are two n×d matrices per
	// improving iteration, and most callers only want M.
	KeepEmbeddings bool
	// Ctx, when non-nil, is checked before each refinement iteration;
	// once cancelled the loop stops early and returns the best result
	// found so far (possibly with a nil similarity when cancelled
	// immediately).
	Ctx context.Context
	// OnIter, when non-nil, observes each refinement iteration as it
	// starts (1-based). The pipeline's progress reporting hangs off it;
	// it never influences the loop.
	OnIter func(iter int)
}

func (c FineTuneConfig) withDefaults() FineTuneConfig {
	if c.M <= 0 {
		c.M = 20
	}
	if c.Beta <= 1 {
		c.Beta = 1.1
	}
	if c.MaxIters <= 0 {
		c.MaxIters = 30
	}
	if c.TopK < 0 {
		c.TopK = 0
	}
	return c
}

// FineTuneResult reports the outcome of one orbit's refinement.
type FineTuneResult struct {
	// Sim is the alignment representation of the best iteration (the one
	// that identified the most trusted pairs): a DenseSim on the dense
	// backend, a *TopKSim on the top-k backend. Nil only when the loop
	// was cancelled before completing a single iteration.
	Sim Sim
	// Trusted is that maximal trusted-pair count Tmax.
	Trusted int
	// Iters is the number of loop iterations executed.
	Iters int
	// Hs and Ht are the source/target embeddings of the best iteration,
	// used by downstream analyses (the paper's Fig. 11 visualisation).
	// They are populated only when FineTuneConfig.KeepEmbeddings is set.
	Hs, Ht *dense.Matrix
	// AnnStats is the merged skew-observability block of the two LSH
	// indices (forward and backward direction) accumulated over every
	// iteration of the loop. Nil unless the ANN backend ran.
	AnnStats *ann.Stats
}

// FineTune runs Algorithm 2 for a single orbit: compute the similarity
// under the configured backend, identify trusted pairs, reinforce their
// aggregation coefficients (Eq. 13), re-embed through the reinforced
// Laplacians (Eq. 14), and repeat while the number of trusted pairs keeps
// growing. The encoder weights are never modified — only the aggregation
// coefficients are tuned.
func FineTune(enc *nn.Encoder, lapS, lapT *sparse.CSR, xs, xt *dense.Matrix, cfg FineTuneConfig) *FineTuneResult {
	cfg = cfg.withDefaults()
	w := cfg.Workers
	rs := ones(lapS.Rows)
	rt := ones(lapT.Rows)
	for _, p := range cfg.KnownPairs {
		if p[0] >= 0 && p[0] < lapS.Rows && p[1] >= 0 && p[1] < lapT.Rows {
			rs[p[0]] *= cfg.Beta
			rt[p[1]] *= cfg.Beta
		}
	}

	// The loop's whole working set is allocated once and reused across
	// iterations: the reinforced Laplacians share the original sparsity
	// pattern (DiagScaleInto rescales values in place, and the clones are
	// only made once reinforcement actually changes rs/rt — single-pass
	// callers embed straight through the originals), the embeddings live
	// in two forward caches, and the similarity working set sits in the
	// backend's scratch (simScratch for dense, one candidate scratch per
	// direction for the top-k path).
	var scaledS, scaledT *sparse.CSR
	var cacheS, cacheT nn.Cache
	reinforced := len(cfg.KnownPairs) > 0
	embed := func() (hs, ht *dense.Matrix) {
		if reinforced {
			if scaledS == nil {
				scaledS, scaledT = lapS.Clone(), lapT.Clone()
			}
			lapS.DiagScaleInto(scaledS, rs, rs)
			lapT.DiagScaleInto(scaledT, rt, rt)
			enc.ForwardReuse(&cacheS, scaledS, xs, w)
			enc.ForwardReuse(&cacheT, scaledT, xt, w)
		} else {
			enc.ForwardReuse(&cacheS, lapS, xs, w)
			enc.ForwardReuse(&cacheT, lapT, xt, w)
		}
		return cacheS.Output(), cacheT.Output()
	}
	hs, ht := embed()

	// score computes one iteration's alignment representation and its
	// trusted pairs; keep snapshots the iteration as the new best. The
	// dense backend scores into reused scratch, so keep must copy; the
	// top-k backend's candidates are freshly allocated each iteration
	// (only the block scratch is reused), so keep can adopt them.
	res := &FineTuneResult{Trusted: -1}
	var score func(hs, ht *dense.Matrix) (Sim, [][2]int)
	var keep func(Sim)
	if cfg.TopK > 0 {
		// Each direction keeps one index across iterations: the exact
		// blocked scan under zero Ann params, the LSH generator under
		// positive bits. Both emit the same structure under the same
		// ordering contract, so the loop body below serves either.
		var lisi candLISI
		fwdGen, bwdGen := &annScratch{p: cfg.Ann}, &annScratch{p: cfg.Ann}
		if cfg.Ann.Bits > 0 {
			defer func() {
				st := fwdGen.stats()
				st.Merge(bwdGen.stats())
				res.AnnStats = &st
			}()
		}
		score = func(hs, ht *dense.Matrix) (Sim, [][2]int) {
			bwd := bwdGen.topK(ht, hs, cfg.TopK, w)
			fwd := fwdGen.topK(hs, ht, cfg.TopK, w)
			pairs := lisi.pairs(fwd, bwd, cfg.M)
			return &TopKSim{C: fwd, Cols: ht.Rows}, pairs
		}
		keep = func(s Sim) { res.Sim = s }
	} else {
		sim := &simScratch{}
		score = func(hs, ht *dense.Matrix) (Sim, [][2]int) {
			m := sim.lisiInto(sim.corrInto(hs, ht, w), cfg.M, w)
			return DenseSim{M: m}, TrustedPairs(m)
		}
		var best *dense.Matrix
		keep = func(s Sim) {
			m := s.(DenseSim).M
			best = dense.Ensure(best, m.Rows, m.Cols)
			best.CopyFrom(m)
			res.Sim = DenseSim{M: best}
		}
	}

	for iter := 0; iter < cfg.MaxIters; iter++ {
		if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
			break
		}
		res.Iters = iter + 1
		if cfg.OnIter != nil {
			cfg.OnIter(iter + 1)
		}
		s, pairs := score(hs, ht)
		if len(pairs) <= res.Trusted {
			break
		}
		keep(s)
		res.Trusted = len(pairs)
		if cfg.KeepEmbeddings {
			res.Hs = dense.Ensure(res.Hs, hs.Rows, hs.Cols)
			res.Hs.CopyFrom(hs)
			res.Ht = dense.Ensure(res.Ht, ht.Rows, ht.Cols)
			res.Ht.CopyFrom(ht)
		}
		for _, p := range pairs {
			rs[p[0]] *= cfg.Beta
			rt[p[1]] *= cfg.Beta
		}
		if len(pairs) > 0 {
			reinforced = true
		}
		hs, ht = embed()
	}
	return res
}

// ones returns an all-one reinforcement vector (Algorithm 2, line 1).
func ones(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// Integrate combines per-orbit alignment matrices with the posterior
// importance weights of Eq. 15: γk = Tk / Σ Ti, where Tk is the trusted-
// pair count of orbit k. It returns the final alignment matrix and the
// weights. When no orbit found any trusted pair the weights fall back to
// uniform. IntegrateSims is the backend-generic form.
func Integrate(ms []*dense.Matrix, trusted []int) (*dense.Matrix, []float64) {
	if len(ms) == 0 || len(ms) != len(trusted) {
		panic("align: Integrate needs one trusted count per matrix")
	}
	gammas := integrationWeights(trusted)
	out := dense.New(ms[0].Rows, ms[0].Cols)
	for k, m := range ms {
		out.AddScaled(m, gammas[k])
	}
	return out, gammas
}
