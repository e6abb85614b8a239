package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"github.com/htc-align/htc/internal/align"
	"github.com/htc-align/htc/internal/ann"
	"github.com/htc-align/htc/internal/dense"
	"github.com/htc-align/htc/internal/graph"
	"github.com/htc-align/htc/internal/nn"
	"github.com/htc-align/htc/internal/par"
	"github.com/htc-align/htc/internal/refine"
)

// ErrAttrMismatch reports incompatible attribute spaces between the two
// input graphs.
var ErrAttrMismatch = errors.New("core: source and target attribute dimensions differ")

// ErrBadAttrs reports non-finite (NaN/Inf) attribute values, which would
// silently poison training.
var ErrBadAttrs = errors.New("core: attributes contain non-finite values")

// ErrBadCandidateK reports a negative top-k candidate count (0 selects
// the automatic default; anything below is a caller bug).
var ErrBadCandidateK = errors.New("core: candidate_k must be ≥ 1 (or 0 for the automatic default)")

// ErrBadAnnParam reports an out-of-range ANN knob (negative, or a code
// width beyond ann.MaxBits).
var ErrBadAnnParam = errors.New("core: invalid ann parameter")

// ErrIgnoredSimKnob reports a similarity knob that the resolved backend
// would silently ignore — candidate_k under dense, ann_bits/ann_probes
// under dense or topk. Rejecting the contradiction beats pretending the
// knob took effect.
var ErrIgnoredSimKnob = errors.New("core: similarity knob ignored by the resolved backend")

// ErrBadPrecision reports an invalid precision tier: an unknown enum
// value, or the float32 tier under a resolved dense backend (which has
// no reduced-precision path — the contradiction is rejected rather than
// silently run in float64).
var ErrBadPrecision = errors.New("core: invalid precision")

// ErrBadRefineParam reports an out-of-range refinement knob: a negative
// iteration count or token budget, or a token budget configured on a run
// with zero refinement iterations (which would silently ignore it).
var ErrBadRefineParam = errors.New("core: invalid refine parameter")

// OrbitOutcome summarises one orbit's contribution to the final alignment.
type OrbitOutcome struct {
	// Orbit is the orbit index (or diffusion order for HTC-DT).
	Orbit int
	// Trusted is the maximal trusted-pair count Tmax of Algorithm 2.
	Trusted int
	// Gamma is the posterior importance weight γk of Eq. 15.
	Gamma float64
	// Iters is the number of fine-tuning iterations run (1 when
	// fine-tuning is disabled).
	Iters int
}

// Result is the output of one pipeline run.
type Result struct {
	// Sim is the final ns×nt alignment (higher scores mean more likely
	// anchors), whatever the backend: a dense matrix wrapper or a per-node
	// candidate list. All score consumers (Predict, matching, evaluation)
	// go through it; on the dense backend Sim.Dense() is the matrix itself.
	Sim align.Sim
	// SimBackend names the similarity backend the run resolved to
	// ("dense", "topk" or "ann") — SimAuto configs report their concrete
	// choice.
	SimBackend string
	// CandidateK is the per-node candidate count of a top-k or ann run
	// (0 on dense runs).
	CandidateK int
	// AnnBits and AnnProbes are the resolved LSH parameters of an ann
	// run — the code width and multi-probe budget actually used, whether
	// configured or auto-sized (0 on dense and topk runs).
	AnnBits, AnnProbes int
	// AnnPoolCap echoes the configured per-query pool bound of an ann run
	// (0 when unbounded, and on dense and topk runs).
	AnnPoolCap int
	// Precision names the numeric tier the fine-tuning stages ran in
	// ("f64" or "f32") — PrecisionAuto configs report their concrete
	// choice, like SimBackend does.
	Precision string
	// Ann is the merged skew-observability block of an ann run's LSH
	// indices — both directions of every orbit's fine-tuning loop,
	// accumulated over all iterations. Nil on dense and topk runs.
	Ann *AnnStats
	// PreRefineSim preserves the stage-5 integrated representation when
	// refinement ran (Config.RefineIters > 0), so callers can report
	// refined versus unrefined quality side by side. Nil when refinement
	// was skipped — Sim then is the stage-5 output itself.
	PreRefineSim align.Sim
	// RefineMNC traces matched-neighborhood consistency across refinement
	// iterations: RefineMNC[0] is the pre-refinement value, RefineMNC[i]
	// the value after iteration i. Nil when refinement was skipped.
	RefineMNC []float64
	// RefineTokenK is the token-match budget refinement resolved to — the
	// configured value, or the row candidate budget when the config left
	// it automatic. Zero when refinement was skipped.
	RefineTokenK int
	// PerOrbit reports each orbit's trusted-pair count and weight,
	// ordered by orbit index — the data behind the paper's Fig. 6.
	PerOrbit []OrbitOutcome
	// Timings decomposes the run's wall-clock cost (Fig. 8).
	Timings StageTimings
	// LossHistory is the training loss Γ per epoch.
	LossHistory []float64
	// Workers is the CPU budget the run actually used (Config.Workers
	// resolved against GOMAXPROCS). It never affects the numbers above —
	// parallelism is a pure performance knob.
	Workers int
	// SourceEmbeddings and TargetEmbeddings hold the per-orbit node
	// embeddings of each orbit's best fine-tuning iteration. They are
	// populated only when Config.KeepEmbeddings is set (the Fig. 11
	// visualisation uses them) to keep normal runs lean.
	SourceEmbeddings, TargetEmbeddings []*dense.Matrix
}

// AnnStats is the JSON-facing summary of an ann run's index statistics
// (internal/ann.Stats plus the derived mean): hash balance and
// query-side pool work. The server embeds it in align results; the CLIs
// print it.
type AnnStats struct {
	// Fits and RowsHashed count index (re)builds across the run and the
	// rows hashed by them.
	Fits       int64 `json:"fits"`
	RowsHashed int64 `json:"rows_hashed"`
	// Buckets, MaxBucket and RehashedBuckets describe hash balance: the
	// first-level table size, the largest first-level bucket seen, and
	// how many oversized buckets received a second-level table.
	Buckets         int   `json:"buckets"`
	MaxBucket       int   `json:"max_bucket"`
	RehashedBuckets int64 `json:"rehashed_buckets"`
	// OccupancyLog2[i] counts non-empty buckets holding [2^(i-1), 2^i)
	// rows on the last fit (bin 1 = exactly 1 row).
	OccupancyLog2 []int64 `json:"occupancy_log2,omitempty"`
	// Queries, PoolRows, PoolRowsMean and PoolRowsMax describe query-side
	// work: re-rank pool totals, mean and worst case per query.
	Queries      int64   `json:"queries"`
	PoolRows     int64   `json:"pool_rows"`
	PoolRowsMean float64 `json:"pool_rows_mean"`
	PoolRowsMax  int     `json:"pool_rows_max"`
	// RefitReuseRatio is always 0: every fit recodes every row. It is
	// kept, out of the JSON, only for the benchmark program that reads it.
	RefitReuseRatio float64 `json:"-"`
}

// annStatsFrom converts the internal counter block into the JSON form,
// materialising the mean pool.
func annStatsFrom(s ann.Stats) *AnnStats {
	return &AnnStats{
		Fits:            s.Fits,
		RowsHashed:      s.Rows,
		Buckets:         s.Buckets,
		MaxBucket:       s.MaxBucket,
		RehashedBuckets: s.Rehashed,
		OccupancyLog2:   s.Occupancy,
		Queries:         s.Queries,
		PoolRows:        s.PoolRows,
		PoolRowsMean:    s.PoolRowsMean(),
		PoolRowsMax:     s.PoolRowsMax,
	}
}

// Predict returns, for every source node, the target node with the highest
// alignment score (−1 for nodes without candidates under the top-k
// backend). Different source nodes may map to the same target; use
// MatchOneToOne for an injective assignment.
func (r *Result) Predict() []int { return r.Sim.Predict() }

// NodeNamer maps contiguous node indices back to the external IDs a real
// dataset keys its nodes by; *ingest.NodeMap is the canonical
// implementation. It lives here as an interface so results can speak
// names without the core depending on the ingestion layer.
type NodeNamer interface {
	// ID returns the external id of node index i.
	ID(i int) string
}

// PredictNames renders Predict through the pair's identity dictionaries:
// one (source id, target id) pair per source node with a prediction.
// Source nodes without candidates (possible under the top-k backend) are
// omitted.
func (r *Result) PredictNames(src, tgt NodeNamer) [][2]string {
	pred := r.Predict()
	out := make([][2]string, 0, len(pred))
	for s, t := range pred {
		if t < 0 {
			continue
		}
		out = append(out, [2]string{src.ID(s), tgt.ID(t)})
	}
	return out
}

// MatchOneToOne extracts an injective assignment from the alignment
// scores. Dense runs use the exact Hungarian optimum up to 1500×1500
// scores and the greedy 1/2-approximation beyond (the O(n³) exact solve
// stops being worth it); top-k runs use the candidate-aware greedy
// matcher, which only ever touches the O(n·k) represented pairs.
func (r *Result) MatchOneToOne() []int {
	if r.Sim.Backend() == align.BackendTopK {
		return align.GreedyMatchSim(r.Sim)
	}
	m := r.Sim.Dense()
	if m.Rows*m.Cols > 1500*1500 {
		return align.GreedyMatch(m)
	}
	return align.HungarianMatch(m)
}

// Align runs the configured HTC pipeline on a source and target graph.
// Graphs without attributes are given structural surrogate features; when
// only one side has attributes, or the dimensions differ, Align fails with
// ErrAttrMismatch (alignment assumes a shared attribute space).
//
// Align is the one-shot convenience wrapper over the staged API: it is
// exactly Prepare followed by Prepared.Align. Callers that run several
// configs over the same pair should Prepare once and Align repeatedly —
// the expensive stage-1/2 artifacts are then built once instead of per
// run.
func Align(gs, gt *graph.Graph, cfg Config) (*Result, error) {
	return AlignContext(context.Background(), gs, gt, cfg)
}

// AlignContext is Align with cooperative cancellation: the context is
// checked at every stage boundary, between training epochs and between
// fine-tuning iterations. When ctx is cancelled mid-run, AlignContext
// stops promptly and returns ctx's error, so a server can reclaim the
// worker goroutine of an abandoned job instead of burning CPU to the end.
func AlignContext(ctx context.Context, gs, gt *graph.Graph, cfg Config) (*Result, error) {
	start := time.Now()
	p, err := PrepareContext(ctx, gs, gt, cfg)
	if err != nil {
		return nil, err
	}
	res, err := p.AlignContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	// The eager artifact build happened inside Prepare; fold its cost back
	// into this run's decomposition so one-shot timings read as before.
	p.FoldPrepareTimings(&res.Timings)
	res.Timings.Total = time.Since(start)
	return res, nil
}

// Align runs pipeline stages 3–5 (training, fine-tuning, integration)
// over the prepared pair under the given config, reusing the memoised
// stage-1/2 artifacts — any artifacts the config needs that were not
// built yet are built now and memoised for the next call. The result is
// bit-identical to the one-shot Align of the same graphs and config.
func (p *Prepared) Align(cfg Config) (*Result, error) {
	return p.AlignContext(context.Background(), cfg)
}

// AlignContext is Prepared.Align with cooperative cancellation, with the
// same promptness contract as the package-level AlignContext.
func (p *Prepared) AlignContext(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.ValidateSimilarity(p.gs.N(), p.gt.N()); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	start := time.Now()
	startAlloc := allocBytes()
	obs := newEmitter(cfg.Progress)

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// One worker budget governs every stage: the fan-outs below divide it
	// so that concurrent subtasks never oversubscribe the cores the caller
	// granted (the server hands each job a slice of the machine).
	workers := par.Resolve(cfg.Workers)
	res := &Result{Workers: workers}

	// Stages 1–2: resolve the aggregation artifacts, building them only
	// if this is the first config to need them.
	sets, err := p.resolveSets(ctx, cfg, workers, &res.Timings, obs)
	if err != nil {
		return nil, err
	}
	setS, setT := sets.s, sets.t
	xs, xt := p.xs, p.xt
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Stage 3: multi-orbit-aware training (Algorithm 1). Train fans the
	// per-orbit forward/backward passes of each epoch across the budget.
	t0 := time.Now()
	a0 := allocBytes()
	src := &nn.GraphData{Laps: setS.Laplacians, X: xs}
	tgt := &nn.GraphData{Laps: setT.Laplacians, X: xt}
	enc := newEncoder(cfg, xs.Cols)
	trainCfg := nn.TrainConfig{Epochs: cfg.Epochs, LR: cfg.LR, Patience: cfg.Patience, Workers: workers, Ctx: ctx}
	if obs != nil {
		epochs := cfg.Epochs
		trainCfg.OnEpoch = func(epoch int, loss float64) {
			obs.emit(Progress{Stage: StageTrain, Done: epoch + 1, Total: epochs, Orbit: -1, Loss: loss})
		}
	}
	res.LossHistory = nn.Train(enc, src, tgt, trainCfg)
	res.Timings.Training = time.Since(t0)
	res.Timings.TrainingBytes = allocBytes() - a0
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Stage 4: per-orbit alignment matrices, fine-tuned when the variant
	// calls for it (Algorithm 2). The encoder is read-only here — only
	// per-orbit aggregation coefficients are tuned — so the orbits are
	// fully independent and fan out across the budget; any budget left
	// over (fewer orbits than workers) parallelises each orbit's kernels
	// instead.
	t0 = time.Now()
	a0 = allocBytes()
	k := setS.K()
	sims := make([]align.Sim, k)
	trusted := make([]int, k)
	res.PerOrbit = make([]OrbitOutcome, k)
	// Resolve the similarity backend against the concrete pair size
	// (SimAuto picks here) and record the choice in the result.
	backend, candidateK := cfg.ResolveSimilarity(p.gs.N(), p.gt.N())
	res.SimBackend = backend.String()
	res.CandidateK = candidateK
	var annParams ann.Params
	if backend == SimANN {
		bits, probes := cfg.ResolveAnn(p.gs.N(), p.gt.N())
		res.AnnBits, res.AnnProbes = bits, probes
		res.AnnPoolCap = cfg.AnnPoolCap
		annParams = ann.Params{Bits: bits, Probes: probes, PoolCap: cfg.AnnPoolCap, Seed: cfg.Seed}
	}
	// Resolve the precision tier the same way (PrecisionAuto picks here)
	// and record the concrete choice.
	prec := cfg.ResolvePrecision(p.gs.N(), p.gt.N())
	res.Precision = prec.String()
	// Each in-flight fine-tune holds its similarity working set — a few
	// ns×nt buffers on the dense backend, O((ns+nt)·k) candidate
	// structures on top-k — so on huge pairs the fan-out is additionally
	// capped by a scratch-memory budget: beyond it, concurrency would
	// multiply gigabyte-sized working sets, not speed; the unused share
	// of the budget flows into each orbit's kernels instead.
	slots := fineTuneConcurrencyCap(p.gs.N(), p.gt.N(), candidateK)
	if slots > k {
		slots = k
	}
	outer, inner := par.SplitOuterInner(workers, slots)
	ftCfg := align.FineTuneConfig{M: cfg.M, Beta: cfg.Beta, MaxIters: cfg.MaxFineTuneIters, KnownPairs: cfg.Seeds, Workers: inner, TopK: candidateK, Ann: annParams, F32: prec == PrecisionF32, KeepEmbeddings: cfg.KeepEmbeddings, Ctx: ctx}
	if !cfg.Variant.usesFineTune() {
		ftCfg.MaxIters = 1 // single pass: score + trusted count, no reinforcement rounds
		ftCfg.KnownPairs = nil
	}
	if cfg.KeepEmbeddings {
		res.SourceEmbeddings = make([]*dense.Matrix, k)
		res.TargetEmbeddings = make([]*dense.Matrix, k)
	}
	fts := make([]*align.FineTuneResult, k)
	var orbitsDone atomic.Int64
	par.Tasks(outer, k, func(i int) {
		if ctx.Err() != nil {
			return // cancelled: remaining orbits are skipped
		}
		taskCfg := ftCfg
		if obs != nil {
			taskCfg.OnIter = func(iter int) {
				obs.emit(Progress{Stage: StageFineTune, Done: int(orbitsDone.Load()), Total: k, Orbit: i, Iters: iter})
			}
		}
		fts[i] = align.FineTune(enc, setS.Laplacians[i], setT.Laplacians[i], xs, xt, taskCfg)
		obs.emit(Progress{Stage: StageFineTune, Done: int(orbitsDone.Add(1)), Total: k, Orbit: i, Iters: fts[i].Iters})
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var annTotals ann.Stats
	for i, ft := range fts {
		sims[i] = ft.Sim
		trusted[i] = ft.Trusted
		res.PerOrbit[i] = OrbitOutcome{Orbit: i, Trusted: ft.Trusted, Iters: ft.Iters}
		if ft.AnnStats != nil {
			annTotals.Merge(*ft.AnnStats)
		}
		if cfg.KeepEmbeddings {
			res.SourceEmbeddings[i] = ft.Hs
			res.TargetEmbeddings[i] = ft.Ht
		}
	}
	if backend == SimANN {
		res.Ann = annStatsFrom(annTotals)
	}
	res.Timings.FineTuning = time.Since(t0)
	res.Timings.FineTuningBytes = allocBytes() - a0
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Stage 5: posterior importance integration (Eq. 15), backend-generic
	// — a weighted matrix sum on dense, a per-row candidate merge on
	// top-k.
	t0 = time.Now()
	a0 = allocBytes()
	sim, gammas := align.IntegrateSims(sims, trusted)
	for i := range res.PerOrbit {
		res.PerOrbit[i].Gamma = gammas[i]
	}
	res.Sim = sim
	res.Timings.Integration = time.Since(t0)
	res.Timings.IntegrationBytes = allocBytes() - a0
	obs.emit(Progress{Stage: StageIntegrate, Done: 1, Total: 1, Orbit: -1})
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Stage 6: RefiNA iterative refinement — off by default (RefineIters
	// = 0 leaves the stage-5 output untouched, bit for bit). When enabled,
	// the pre-refinement representation is kept on the result so callers
	// can report refined versus unrefined quality side by side. Refine
	// never mutates its input, so no defensive clone is needed.
	if cfg.RefineIters > 0 {
		t0 = time.Now()
		a0 = allocBytes()
		ropts := refine.Options{Iters: cfg.RefineIters, TokenK: cfg.RefineTokenK, Workers: workers, Ctx: ctx}
		if obs != nil {
			total := cfg.RefineIters
			ropts.OnIter = func(iter int, mnc float64) {
				obs.emit(Progress{Stage: StageRefine, Done: iter, Total: total, Orbit: -1})
			}
		}
		rres, err := refine.Refine(res.Sim, p.gs, p.gt, ropts)
		if err != nil {
			return nil, err
		}
		res.PreRefineSim = res.Sim
		res.Sim = rres.Sim
		res.RefineMNC = rres.MNC
		res.RefineTokenK = rres.TokenK
		res.Timings.Refinement = time.Since(t0)
		res.Timings.RefinementBytes = allocBytes() - a0
	}

	res.Timings.Total = time.Since(start)
	res.Timings.TotalBytes = allocBytes() - startAlloc
	return res, nil
}

// fineTuneConcurrencyCap bounds how many per-orbit fine-tuning loops may
// run at once, keeping their combined similarity scratch under ~2 GiB.
// On the dense backend each loop holds ~4 ns×nt float64 buffers
// (similarity, its transpose, LISI, best-M); 20k×20k pairs degrade to
// sequential orbits (each still using the full kernel budget) instead of
// multiplying gigabyte working sets. On the top-k backend (candidateK
// ≥ 1) the working set is the forward/backward candidate structures plus
// block scratch — O((ns+nt)·k) — so far larger pairs keep their orbit
// fan-out.
func fineTuneConcurrencyCap(ns, nt, candidateK int) int {
	const budgetBytes = 2 << 30
	var per int64
	if candidateK > 0 {
		// 12 bytes per candidate (id + score) in each direction, doubled
		// for the snapshot the result keeps, plus slack for block scratch.
		per = 48 * int64(ns+nt) * int64(candidateK)
	} else {
		per = 4 * 8 * int64(ns) * int64(nt)
	}
	if per <= 0 {
		return 1
	}
	cap := int(budgetBytes / per)
	if cap < 1 {
		return 1
	}
	return cap
}

func newEncoder(cfg Config, inDim int) *nn.Encoder {
	rng := rand.New(rand.NewSource(cfg.Seed))
	dims := []int{inDim, cfg.Hidden, cfg.Embed}
	acts := []nn.Activation{nn.Tanh{}, nn.Tanh{}}
	if cfg.Layers == 3 {
		dims = []int{inDim, cfg.Hidden, cfg.Hidden, cfg.Embed}
		acts = []nn.Activation{nn.Tanh{}, nn.Tanh{}, nn.Tanh{}}
	}
	return nn.NewEncoder(dims, acts, rng)
}

// featurePair resolves the attribute matrices of both graphs. When neither
// graph carries attributes, degree-based surrogate features are generated
// so that purely structural alignment still works.
func featurePair(gs, gt *graph.Graph) (*dense.Matrix, *dense.Matrix, error) {
	switch {
	case gs.Attrs() == nil && gt.Attrs() == nil:
		return structuralFeatures(gs), structuralFeatures(gt), nil
	case gs.Attrs() == nil || gt.Attrs() == nil:
		return nil, nil, fmt.Errorf("%w: one graph has attributes, the other does not", ErrAttrMismatch)
	case gs.Attrs().Cols != gt.Attrs().Cols:
		return nil, nil, fmt.Errorf("%w: %d vs %d", ErrAttrMismatch, gs.Attrs().Cols, gt.Attrs().Cols)
	}
	for _, x := range [2]*dense.Matrix{gs.Attrs(), gt.Attrs()} {
		for _, v := range x.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, nil, ErrBadAttrs
			}
		}
	}
	return gs.Attrs(), gt.Attrs(), nil
}

// structuralFeatures builds permutation-equivariant surrogate attributes:
// a constant channel, normalised degree and log-degree. Using only
// structural quantities keeps Proposition 1 applicable when no shared
// attribute space exists.
func structuralFeatures(g *graph.Graph) *dense.Matrix {
	x := dense.New(g.N(), 3)
	maxDeg := float64(g.MaxDegree())
	if maxDeg == 0 {
		maxDeg = 1
	}
	for i := 0; i < g.N(); i++ {
		d := float64(g.Degree(i))
		row := x.Row(i)
		row[0] = 1
		row[1] = d / maxDeg
		row[2] = math.Log1p(d) / math.Log1p(maxDeg)
	}
	return x
}
