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
	// k ≥ 1 runs the blocked top-k candidate path, holding O(n·k) scores
	// instead of O(n²). With k ≥ nt (and k ≥ ns for the backward
	// direction) the two backends are bit-identical; smaller k trades
	// exactness for bounded memory.
	TopK int
	// Ann, when its Bits are positive (and TopK ≥ 1), swaps the blocked
	// exact candidate scan for the LSH generator of internal/ann:
	// compute drops from O(ns·nt) score cells to hashing plus an exact
	// re-rank of each node's probed pool. Everything downstream —
	// hubness, LISI, trusted pairs, integration — runs unchanged on the
	// candidate lists, and with Probes ≥ 2^Bits the loop is
	// bit-identical to the exact top-k path.
	Ann ann.Params
	// F32 runs the candidate generators on the float32 compute tier:
	// each iteration's embeddings are converted once (fused with the
	// center/normalize pass) into half-width copies, and projection,
	// hashing and re-rank read float32 values with float64 accumulators.
	// Candidate scores widen monotonically back to float64, so the loop
	// body is tier-independent. Only meaningful with TopK ≥ 1 — the
	// dense backend has no float32 tier (core validation rejects the
	// combination before it gets here).
	F32 bool
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
	// backend's scratch (simScratch for dense, two topkScratches for the
	// blocked candidate path).
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
		// Both candidate generators emit the same structure under the
		// same ordering contract, so the loop body below serves the
		// exact blocked scan and the LSH index alike — each direction
		// keeps its own scratch across iterations.
		var fwdGen, bwdGen func(a, b *dense.Matrix) *Candidates
		switch {
		case cfg.Ann.Bits > 0 && cfg.F32:
			fa := &annScratch32{p: cfg.Ann}
			ba := &annScratch32{p: cfg.Ann}
			fwdGen = func(a, b *dense.Matrix) *Candidates { return fa.topK(a, b, cfg.TopK, w) }
			bwdGen = func(a, b *dense.Matrix) *Candidates { return ba.topK(a, b, cfg.TopK, w) }
			defer func() {
				st := fa.stats()
				st.Merge(ba.stats())
				res.AnnStats = &st
			}()
		case cfg.Ann.Bits > 0:
			fa := &annScratch{p: cfg.Ann}
			ba := &annScratch{p: cfg.Ann}
			fwdGen = func(a, b *dense.Matrix) *Candidates { return fa.topK(a, b, cfg.TopK, w) }
			bwdGen = func(a, b *dense.Matrix) *Candidates { return ba.topK(a, b, cfg.TopK, w) }
			defer func() {
				st := fa.stats()
				st.Merge(ba.stats())
				res.AnnStats = &st
			}()
		case cfg.F32:
			var fs, bs topkScratch32
			fwdGen = func(a, b *dense.Matrix) *Candidates { return fs.topK(a, b, cfg.TopK, w) }
			bwdGen = func(a, b *dense.Matrix) *Candidates { return bs.topK(a, b, cfg.TopK, w) }
		default:
			var fs, bs topkScratch
			fwdGen = func(a, b *dense.Matrix) *Candidates { return fs.topK(a, b, cfg.TopK, w) }
			bwdGen = func(a, b *dense.Matrix) *Candidates { return bs.topK(a, b, cfg.TopK, w) }
		}
		var dt, ds []float64
		score = func(hs, ht *dense.Matrix) (Sim, [][2]int) {
			fwd := fwdGen(hs, ht)
			bwd := bwdGen(ht, hs)
			dt = topMeansInto(dt, fwd, cfg.M)
			ds = topMeansInto(ds, bwd, cfg.M)
			pairs := trustedPairsCands(fwd, bwd, dt, ds)
			lisiTransform(fwd, dt, ds)
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
