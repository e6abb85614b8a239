package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sync"
	"time"

	"github.com/htc-align/htc/internal/dense"
	"github.com/htc-align/htc/internal/diffusion"
	"github.com/htc-align/htc/internal/gom"
	"github.com/htc-align/htc/internal/graph"
	"github.com/htc-align/htc/internal/orbit"
	"github.com/htc-align/htc/internal/par"
)

// aggMode distinguishes the three stage-2 artifact families a Config can
// select: orbit-based GOMs, diffusion matrices, or the low-order
// adjacency Laplacian.
type aggMode int

const (
	aggOrbits aggMode = iota
	aggDiffusion
	aggLowOrder
)

// aggKey identifies one stage-2 artifact set: the aggregation family plus
// every hyperparameter that shapes it. Configs that differ only in
// training/fine-tuning knobs (epochs, seed, M, β, workers, …) map to the
// same key and therefore share artifacts.
type aggKey struct {
	mode   aggMode
	k      int
	binary bool
	alpha  float64
}

// aggKeyOf derives the artifact key of a defaulted config, mirroring the
// stage-2 dispatch of the pipeline.
func aggKeyOf(cfg Config) aggKey {
	switch {
	case cfg.Variant.usesOrbits():
		return aggKey{mode: aggOrbits, k: cfg.K, binary: cfg.Binary}
	case cfg.Variant == DiffusionFT:
		order := cfg.K
		if order > 5 {
			order = 5 // the paper's best HTC-DT uses k = 5
		}
		return aggKey{mode: aggDiffusion, k: order, alpha: cfg.DiffusionAlpha}
	default: // LowOrder, LowOrderFT
		return aggKey{mode: aggLowOrder, k: 1}
	}
}

// setPair bundles one graph pair's stage-2 artifact sets.
type setPair struct {
	s, t *gom.Set
}

// setEntry is one (possibly in-flight) memoised artifact set. The builder
// publishes sp and closes done; waiters block on done with their own
// context, so a slow build never pins an unrelated caller uncancellably.
type setEntry struct {
	done chan struct{}
	sp   *setPair // nil after done only if the builder was cancelled
	use  uint64   // last-use tick for eviction
}

// countsEntry is the pair's (possibly in-flight) edge-orbit counts.
type countsEntry struct {
	done chan struct{}
	c    *orbitCounts
}

// maxMemoisedSets bounds how many stage-2 artifact families one Prepared
// retains. Distinct families are keyed by client-controllable
// hyperparameters (K, binary, diffusion order/α), so without a bound a
// long-lived server Prepared would accrete Laplacian sets forever; beyond
// the cap the least recently used completed set is dropped and simply
// rebuilt if ever needed again (a pure perf trade, never a result
// change). 16 covers every variant roster and hyperparameter grid in the
// repo with room to spare.
const maxMemoisedSets = 16

// Prepared holds everything about a graph pair that does not depend on
// the training/fine-tuning hyperparameters: the validated graphs, their
// input feature matrices, a content hash identifying the pair, and a memo
// of the expensive stage-1/2 artifacts (edge-orbit counts and the
// per-family aggregation Laplacians). The memo starts empty: the first
// Align that needs an artifact builds it, times it into its own
// Result.Timings, and every later Align reuses it. So variant and
// hyperparameter sweeps pay the dominant per-run cost (paper Fig. 8)
// once: the 13-orbit counts are computed at most once per pair, and each
// distinct aggregation family (K, binary, diffusion order/α) builds its
// Laplacians at most once.
//
// A Prepared is safe for concurrent use: multiple goroutines may Align
// against it at the same time (the server's sweep endpoint and artifact
// cache do), and artifact construction is memoised under an internal
// lock, so concurrent first users of the same artifact serialise instead
// of duplicating work.
type Prepared struct {
	gs, gt *graph.Graph
	xs, xt *dense.Matrix
	hash   string

	// mu guards the memo maps only — never a build: builders claim an
	// in-flight entry under mu, build outside it, and publish by closing
	// the entry's done channel, so concurrent Aligns on other (or the
	// same, already-built) families proceed and waiters stay cancellable.
	mu     sync.Mutex
	counts *countsEntry
	sets   map[aggKey]*setEntry
	useSeq uint64
	// countRuns and setBuilds count the actual artifact constructions —
	// the reuse proof used by tests and surfaced in Stats.
	countRuns, setBuilds int
}

// orbitCounts pairs the edge-orbit counts of both graphs.
type orbitCounts struct {
	s, t *orbit.Counts
}

// PreparedStats reports how much work a Prepared has absorbed so far.
type PreparedStats struct {
	// OrbitCountRuns is how many times the pair's edge orbits were
	// counted (at most 1 once any orbit-based config has run).
	OrbitCountRuns int
	// SetBuilds is how many distinct stage-2 artifact sets were built.
	SetBuilds int
	// Sets is the number of artifact sets currently memoised.
	Sets int
}

// Prepare validates a graph pair and derives what every config shares:
// the input features and the pair's content hash. It builds no stage-1/2
// artifact; the first Align that needs one builds it, so any Config is
// compatible with any Prepared of the same pair.
func Prepare(gs, gt *graph.Graph) (*Prepared, error) {
	xs, xt, err := featurePair(gs, gt)
	if err != nil {
		return nil, err
	}
	return &Prepared{
		gs: gs, gt: gt, xs: xs, xt: xt,
		hash: PairHash(gs, gt),
		sets: make(map[aggKey]*setEntry),
	}, nil
}

// Source and Target return the prepared pair's graphs.
func (p *Prepared) Source() *graph.Graph { return p.gs }
func (p *Prepared) Target() *graph.Graph { return p.gt }

// Hash returns the pair's content hash (see PairHash): equal hashes mean
// structurally identical graph pairs whose prepared artifacts are
// interchangeable. The alignment server keys its artifact cache on it.
func (p *Prepared) Hash() string { return p.hash }

// Stats snapshots the artifact-reuse counters.
func (p *Prepared) Stats() PreparedStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PreparedStats{OrbitCountRuns: p.countRuns, SetBuilds: p.setBuilds, Sets: len(p.sets)}
}

// resolveSets returns the stage-2 artifact sets for cfg, building and
// memoising them (and, for orbit-based configs, the stage-1 edge-orbit
// counts) on first use. Build time is recorded into timings; progress
// events are emitted only for real builds, so sweeps observe the stages
// they actually pay for. The artifacts depend only on the graphs and the
// aggregation hyperparameters — never on the worker budget — so any
// concurrent caller may reuse them.
//
// Concurrency: the first caller of a family claims an in-flight entry
// and builds outside the lock; later callers of the same family wait on
// the entry under their own context (a cancelled waiter returns
// promptly, freeing its server worker even while the build runs), and
// callers of other families are never blocked at all.
func (p *Prepared) resolveSets(ctx context.Context, cfg Config, workers int, timings *StageTimings, obs *emitter) (*setPair, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	key := aggKeyOf(cfg)

	p.mu.Lock()
	e, ok := p.sets[key]
	if ok {
		e.use = p.nextUseLocked()
		p.mu.Unlock()
		select {
		case <-e.done:
			if e.sp != nil {
				return e.sp, nil
			}
			// The builder was cancelled before finishing and withdrew its
			// claim; take over (or wait on whoever already did).
			return p.resolveSets(ctx, cfg, workers, timings, obs)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	e = &setEntry{done: make(chan struct{}), use: p.nextUseLocked()}
	p.sets[key] = e
	p.mu.Unlock()

	sp, err := p.buildSets(ctx, key, workers, timings, obs)
	if err != nil {
		// Cancelled between stages: withdraw the claim so a later caller
		// rebuilds, and wake any waiters (they retry under their own ctx).
		p.mu.Lock()
		delete(p.sets, key)
		p.mu.Unlock()
		close(e.done)
		return nil, err
	}
	p.mu.Lock()
	e.sp = sp
	p.setBuilds++
	p.evictSetsLocked(e)
	p.mu.Unlock()
	close(e.done)
	return sp, nil
}

// nextUseLocked ticks the recency clock (callers hold p.mu).
func (p *Prepared) nextUseLocked() uint64 {
	p.useSeq++
	return p.useSeq
}

// evictSetsLocked drops least-recently-used completed artifact sets
// beyond maxMemoisedSets, sparing in-flight builds and keep (the entry
// just produced). Evicted families rebuild on demand; results never
// change.
func (p *Prepared) evictSetsLocked(keep *setEntry) {
	for len(p.sets) > maxMemoisedSets {
		var oldestKey aggKey
		var oldest *setEntry
		for k, e := range p.sets {
			if e == keep || e.sp == nil {
				continue
			}
			if oldest == nil || e.use < oldest.use {
				oldestKey, oldest = k, e
			}
		}
		if oldest == nil {
			return
		}
		delete(p.sets, oldestKey)
	}
}

// resolveCounts returns the pair's edge-orbit counts, counting them on
// first use: once per pair, covering all 13 orbits so every K shares
// them. The two graphs count concurrently, each with a share of the
// budget proportional to its edge count. Counting is not interruptible
// mid-build, but waiters block under their own context.
func (p *Prepared) resolveCounts(ctx context.Context, workers int, timings *StageTimings, obs *emitter) (*orbitCounts, error) {
	p.mu.Lock()
	e := p.counts
	if e != nil {
		p.mu.Unlock()
		select {
		case <-e.done:
			return e.c, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	e = &countsEntry{done: make(chan struct{})}
	p.counts = e
	p.mu.Unlock()

	obs.emit(Progress{Stage: StageOrbitCounts, Done: 0, Total: 2, Orbit: -1})
	t0 := time.Now()
	a0 := allocBytes()
	c := &orbitCounts{}
	if workers >= 2 {
		ws, wt := par.Split2(workers, len(p.gs.Edges()), len(p.gt.Edges()))
		par.Do(2,
			func() { c.s = orbit.CountN(p.gs, ws) },
			func() { c.t = orbit.CountN(p.gt, wt) })
	} else {
		c.s = orbit.CountN(p.gs, 1)
		c.t = orbit.CountN(p.gt, 1)
	}
	timings.OrbitCounting = time.Since(t0)
	timings.OrbitCountingBytes = allocBytes() - a0
	p.mu.Lock()
	e.c = c
	p.countRuns++
	p.mu.Unlock()
	close(e.done)
	obs.emit(Progress{Stage: StageOrbitCounts, Done: 2, Total: 2, Orbit: -1})
	return c, nil
}

// buildSets constructs one aggregation family's stage-2 artifacts
// (resolving the shared stage-1 counts first when the family needs
// them).
func (p *Prepared) buildSets(ctx context.Context, key aggKey, workers int, timings *StageTimings, obs *emitter) (*setPair, error) {
	var counts *orbitCounts
	if key.mode == aggOrbits {
		var err error
		if counts, err = p.resolveCounts(ctx, workers, timings, obs); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Stage 2: aggregation matrices (GOM Laplacians or alternatives),
	// one independent build per graph.
	obs.emit(Progress{Stage: StageLaplacians, Done: 0, Total: 2, Orbit: -1})
	t0 := time.Now()
	a0 := allocBytes()
	sp := &setPair{}
	buildPair := func(buildS, buildT func() *gom.Set) {
		if workers >= 2 {
			par.Do(2,
				func() { sp.s = buildS() },
				func() { sp.t = buildT() })
		} else {
			sp.s, sp.t = buildS(), buildT()
		}
	}
	switch key.mode {
	case aggOrbits:
		buildPair(
			func() *gom.Set { return gom.Build(p.gs, counts.s, key.k, key.binary) },
			func() *gom.Set { return gom.Build(p.gt, counts.t, key.k, key.binary) })
	case aggDiffusion:
		diffuse := func(g *graph.Graph) *gom.Set {
			return gom.FromMatrices(diffusion.Matrices(g, key.k, key.alpha, 1e-4))
		}
		buildPair(
			func() *gom.Set { return diffuse(p.gs) },
			func() *gom.Set { return diffuse(p.gt) })
	default: // aggLowOrder
		buildPair(
			func() *gom.Set { return gom.LowOrder(p.gs) },
			func() *gom.Set { return gom.LowOrder(p.gt) })
	}
	timings.Laplacians = time.Since(t0)
	timings.LaplaciansBytes = allocBytes() - a0
	obs.emit(Progress{Stage: StageLaplacians, Done: 2, Total: 2, Orbit: -1})
	return sp, nil
}

// PairHash returns a content hash identifying a graph pair: node counts,
// edge lists and attribute matrices of both graphs, in order. Pairs with
// equal hashes produce interchangeable Prepared artifacts (and, for equal
// configs, bit-identical alignments). The hash ignores everything a
// Config carries.
func PairHash(gs, gt *graph.Graph) string {
	h := sha256.New()
	var buf [8]byte
	writeInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	writeGraph := func(g *graph.Graph) {
		writeInt(int64(g.N()))
		edges := g.Edges()
		writeInt(int64(len(edges)))
		for _, e := range edges {
			writeInt(int64(e[0]))
			writeInt(int64(e[1]))
		}
		if x := g.Attrs(); x != nil {
			writeInt(int64(x.Rows))
			writeInt(int64(x.Cols))
			for _, v := range x.Data {
				writeInt(int64(math.Float64bits(v)))
			}
		} else {
			writeInt(-1)
		}
	}
	writeGraph(gs)
	writeGraph(gt)
	return hex.EncodeToString(h.Sum(nil))
}
