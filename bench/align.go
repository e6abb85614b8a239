package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"github.com/htc-align/htc/internal/core"
	"github.com/htc-align/htc/internal/datasets"
	"github.com/htc-align/htc/internal/dense"
	"github.com/htc-align/htc/internal/graph"
	"github.com/htc-align/htc/internal/ingest"
	"github.com/htc-align/htc/internal/metrics"
)

// alignInput is the set-up of a library workload: either a ready graph
// pair, or the raw edge-list text of one that each operation ingests.
type alignInput struct {
	gs, gt  *graph.Graph
	truth   metrics.Truth
	srcText []byte
	tgtText []byte
	cfg     core.Config
	// floor is the Hits@1 every operation must reach.
	floor float64
	// wantBackend and wantPrecision, when set, are the similarity
	// backend and precision tier the run must resolve to.
	wantBackend, wantPrecision string
}

// runPaperMovie is the paper's headline configuration: the Allmovie–Imdb
// stand-in aligned by full HTC at the paper's defaults, then matched one
// to one (Hungarian at this size).
func runPaperMovie(opts options) (*outcome, error) {
	n, cfg := 100, core.Config{Seed: opts.seed}
	if opts.smoke {
		n, cfg.Epochs = 40, 5
	}
	return runAlign(opts, func() (*alignInput, error) {
		p := datasets.AllmovieImdb(n, opts.seed)
		return &alignInput{gs: p.Source, gt: p.Target, truth: p.Truth, cfg: cfg, floor: 0.85}, nil
	})
}

// runRefineDense aligns an Econ network with a 10%-edge-removed copy of
// itself by HTC-LT on the dense backend, followed by three RefiNA
// iterations, which dominate the operation.
func runRefineDense(opts options) (*outcome, error) {
	n := 1200
	if opts.smoke {
		n = 120
	}
	return runAlign(opts, func() (*alignInput, error) {
		gs := datasets.Econ(n, opts.seed)
		gt, truth := datasets.MakeTarget(gs, 0.1, opts.seed)
		cfg := core.Config{
			Variant: core.LowOrderFT, Hidden: 32, Embed: 16, Epochs: 10,
			MaxFineTuneIters: 5, RefineIters: 3, Seed: opts.seed,
		}
		return &alignInput{gs: gs, gt: gt, truth: truth, cfg: cfg, floor: 0.98, wantBackend: "dense"}, nil
	})
}

// runANN40k ingests a SNAP-style edge-list pair of 40 000 nodes and
// aligns it by HTC-LT with one candidate-list refinement iteration. The
// pair is past the 2^30 score cells where automatic resolution picks the
// LSH candidate backend at float32 precision, and the operation checks
// that it did: this is the only workload on ann and f32. Narrow widths,
// two edges per node, 16 candidates and a 1024-row re-rank pool keep an
// operation to a few seconds, so a run measures several and reports
// their median; fine-tuning stays the largest stage.
func runANN40k(opts options) (*outcome, error) {
	n := 40000
	cfg := core.Config{
		Variant: core.LowOrderFT, Hidden: 32, Embed: 16, Epochs: 2, MaxFineTuneIters: 1, M: 10,
		CandidateK: 16, AnnPoolCap: 1024, RefineIters: 1, Seed: opts.seed,
	}
	if opts.smoke {
		// Toy pairs resolve to dense, so the smoke test names the
		// backend and tier to still run their code.
		n, cfg.Similarity, cfg.Precision = 200, core.SimANN, core.PrecisionF32
	}
	return runAlign(opts, func() (*alignInput, error) {
		src, tgt := edgeListPair(n, 2, 0.05, opts.seed)
		return &alignInput{srcText: src, tgtText: tgt, cfg: cfg, floor: 0.80, wantBackend: "ann", wantPrecision: "f32"}, nil
	})
}

// opResult is what one operation leaves behind for the aggregates.
type opResult struct {
	latency    time.Duration
	alloc      uint64
	res        *core.Result
	hits1, mrr float64
}

// runAlign is the loop shared by the library workloads: set up, then
// operations back to back until the next one would overrun the measured
// phase, and at least one. There is no warm-up operation: the median of
// a run's operations absorbs the first one's heap growth.
func runAlign(opts options, setup func() (*alignInput, error)) (*outcome, error) {
	speed := newHostSpeed(opts)
	in, setupS, err := timeSetup(setup, nil)
	if err != nil {
		return nil, err
	}
	out := newOutcome()

	var tr *tracer
	if opts.trace {
		tr = newTracer()
	}
	var recs []opResult
	budget := time.Duration(opts.seconds * float64(time.Second))
	var last time.Duration
	gc0 := readGC()
	start := time.Now()
	speed.sample()
	for out.attempted == 0 || time.Since(start)+last <= budget {
		if speed.due() {
			speed.sample()
		}
		t0 := time.Now()
		out.attempted++
		rec, problems, err := in.op(tr)
		last = time.Since(t0)
		if err != nil {
			problems = append(problems, err.Error())
		}
		if len(problems) > 0 {
			out.fail(fmt.Sprintf("op %d: %v", out.attempted, problems))
		}
		if err != nil {
			continue
		}
		recs = append(recs, rec)
	}
	elapsed := time.Since(start)
	gc1 := readGC()
	speed.sample()
	if len(recs) == 0 {
		return nil, fmt.Errorf("every operation failed: %v", out.notes)
	}
	first := recs[0]
	lat := make([]float64, len(recs))
	var sumAlloc uint64
	var busy time.Duration
	for i, r := range recs {
		if r.hits1 != first.hits1 || r.mrr != first.mrr {
			out.fail(fmt.Sprintf("op %d scored hits1=%v mrr=%v, the first op hits1=%v mrr=%v: same input, different answer", i+1, r.hits1, r.mrr, first.hits1, first.mrr))
		}
		lat[i] = ms(r.latency)
		sumAlloc += r.alloc
		busy += r.latency
	}
	scale := speed.scale()
	out.values["setup_s"] = setupS * scale
	out.values["align_s"] = median(lat) / 1e3 * scale
	out.values["align_wall_s"] = median(lat) / 1e3
	out.values["req_p50_ms"] = median(lat) * scale
	out.values["req_p90_ms"] = percentile(lat, 90) * scale
	out.values["req_per_s"] = float64(len(recs)) / busy.Seconds() / scale
	out.values["alloc_mb"] = float64(sumAlloc) / float64(len(recs)) / 1e6
	out.values["hits1"] = first.hits1
	out.values["mrr"] = first.mrr
	out.notes = append(out.notes, fmt.Sprintf("%d timed ops in %.1f s; wall %s; %s", len(recs), elapsed.Seconds(), latencySummary(lat), speed))
	if tr != nil {
		layerValues(out.values, tr, recs, gc0, gc1, scale)
	}
	return out, nil
}

// op runs one operation: ingest (when the input is raw text), align and
// match are timed; joining features, evaluation and the checks are not.
// An error means the operation itself failed; problems lists the checks
// it failed.
func (in *alignInput) op(tr *tracer) (rec opResult, problems []string, err error) {
	gs, gt, truth := in.gs, in.gt, in.truth
	if in.srcText != nil {
		t0, a0 := time.Now(), heapAllocs()
		ls, err := loadGraph(tr, in.srcText)
		if err != nil {
			return rec, nil, err
		}
		lt, err := loadGraph(tr, in.tgtText)
		if err != nil {
			return rec, nil, err
		}
		rec.latency, rec.alloc = time.Since(t0), heapAllocs()-a0
		gs = ls.Graph.WithAttrs(idAttrs(ls.Nodes, 6))
		gt = lt.Graph.WithAttrs(idAttrs(lt.Nodes, 6))
		truth = idTruth(ls.Nodes, lt.Nodes)
	}

	cfg := in.cfg
	t0, a0 := time.Now(), heapAllocs()
	sp := tr.begin("core.align", -1)
	cfg.Progress = tr.stageObserver(sp)
	res, err := core.Align(gs, gt, cfg)
	tr.end(sp)
	if err != nil {
		return rec, nil, err
	}
	sp = tr.begin("align.match", -1)
	match := res.MatchOneToOne()
	tr.end(sp)
	rec.latency += time.Since(t0)
	rec.alloc += heapAllocs() - a0
	rec.res = res

	sp = tr.begin("metrics.eval", -1)
	ev := metrics.EvaluateSim(res.Sim, truth, 1)
	tr.end(sp)
	rec.hits1, rec.mrr = ev.PrecisionAt[1], ev.MRR

	if err := checkMatching(match, gt.N()); err != nil {
		problems = append(problems, err.Error())
	}
	if rec.hits1 < in.floor {
		problems = append(problems, fmt.Sprintf("hits1 %.4f below the workload's floor %.2f", rec.hits1, in.floor))
	}
	if in.wantBackend != "" && res.SimBackend != in.wantBackend {
		problems = append(problems, fmt.Sprintf("ran on sim backend %q, want %q", res.SimBackend, in.wantBackend))
	}
	if in.wantPrecision != "" && res.Precision != in.wantPrecision {
		problems = append(problems, fmt.Sprintf("ran at precision %q, want %q", res.Precision, in.wantPrecision))
	}
	return rec, problems, nil
}

func loadGraph(tr *tracer, text []byte) (*ingest.Loaded, error) {
	sp := tr.begin("ingest.load", -1)
	defer tr.end(sp)
	return ingest.Load(bytes.NewReader(text), ingest.Options{})
}

// checkMatching verifies that a one-to-one matching maps every source
// node to a target index in range, or to -1, and no target twice.
func checkMatching(match []int, targets int) error {
	seen := make([]bool, targets)
	for s, t := range match {
		switch {
		case t == -1:
		case t < 0 || t >= targets:
			return fmt.Errorf("matching maps source %d to %d, outside %d targets", s, t, targets)
		case seen[t]:
			return fmt.Errorf("matching maps target %d twice", t)
		default:
			seen[t] = true
		}
	}
	return nil
}

// layerValues turns the traced run's spans and results into the
// per-layer metrics. Shares divide a layer's summed self time by the
// summed operation time; the eval span lies outside the operations.
func layerValues(v map[string]float64, tr *tracer, recs []opResult, gc0, gc1 gcSnapshot, scale float64) {
	self := selfTimes(tr.spans)
	allocs := selfAllocs(tr.spans)
	ops := float64(len(recs))
	lat := make([]float64, len(recs))
	var opTime time.Duration
	var epochs, iters, trusted, refineIters, queries, poolRows, rowsHashed, reuse, mncBefore, mncAfter float64
	for i, r := range recs {
		lat[i] = ms(r.latency)
		opTime += r.latency
		res := r.res
		epochs += float64(len(res.LossHistory))
		for _, o := range res.PerOrbit {
			iters += float64(o.Iters)
			trusted += float64(o.Trusted)
		}
		if res.Ann != nil {
			queries += float64(res.Ann.Queries)
			poolRows += res.Ann.PoolRowsMean
			rowsHashed += float64(res.Ann.RowsHashed)
			reuse += res.Ann.RefitReuseRatio
		}
		if k := len(res.RefineMNC); k > 0 {
			refineIters += float64(k - 1)
			mncBefore += res.RefineMNC[0]
			mncAfter += res.RefineMNC[k-1]
		}
	}
	share := func(layer string) float64 { return self[layer].Seconds() / opTime.Seconds() }
	mb := func(layer string) float64 { return float64(allocs[layer]) / ops / 1e6 }

	v["trace.op_ms"] = median(lat) * scale
	v["core.self_share"] = share("core.align")
	v["ingest.load_share"] = share("ingest.load")
	v["ingest.alloc_mb"] = mb("ingest.load")
	v["orbit.count_share"] = share("orbit.count")
	v["gom.build_share"] = share("gom.build")
	v["gom.alloc_mb"] = mb("gom.build")
	v["nn.train_share"] = share("nn.train")
	v["nn.alloc_mb"] = mb("nn.train")
	v["nn.epochs"] = epochs / ops
	v["nn.epoch_ms"] = ms(self["nn.train"]) / epochs * scale
	v["align.finetune_share"] = share("align.finetune")
	v["align.finetune_alloc_mb"] = mb("align.finetune")
	v["align.finetune_iters"] = iters / ops
	v["align.trusted_pairs"] = trusted / ops
	v["align.integrate_share"] = share("align.integrate")
	v["align.match_share"] = share("align.match")
	v["ann.queries"] = queries / ops
	v["ann.pool_rows_mean"] = poolRows / ops
	v["ann.rows_hashed"] = rowsHashed / ops
	v["ann.refit_reuse"] = reuse / ops
	v["refine.refine_share"] = share("refine.refine")
	v["refine.alloc_mb"] = mb("refine.refine")
	v["refine.iters"] = refineIters / ops
	v["refine.mnc_before"] = mncBefore / ops
	v["refine.mnc_after"] = mncAfter / ops
	v["metrics.eval_share"] = share("metrics.eval")
	for _, name := range []string{"server.http_429", "server.http_5xx", "server.overhead_share", "server.polls_per_req",
		"server.prepared_hit_ratio", "server.queue_share", "server.result_hit_ratio", "server.run_share"} {
		v[name] = 0 // no server on the library workloads
	}
	gcValues(v, gc0, gc1, ops, scale)
}

// gcValues reports the garbage collector's cycles and stop-the-world
// pause time per request over the measured phase.
func gcValues(v map[string]float64, gc0, gc1 gcSnapshot, requests, scale float64) {
	v["go.gc_cycles"] = float64(gc1.cycles-gc0.cycles) / requests
	v["go.gc_pause_ms"] = ms(gc1.pause-gc0.pause) / requests * scale
}

// edgeListPair writes a preferential-attachment graph on n nodes, each
// attaching up to per edges, as SNAP-style "vI vJ" lines, and a target
// copy missing a drop fraction of the edges. Node ids carry across the
// pair, so the ground truth is "same id".
func edgeListPair(n, per int, drop float64, seed int64) (src, tgt []byte) {
	rng := rand.New(rand.NewSource(seed))
	var sb, tb bytes.Buffer
	ends := make([]int32, 0, 2*per*n)
	ends = append(ends, 0)
	line := make([]byte, 0, 32)
	for i := 1; i < n; i++ {
		for d := 0; d < per; d++ {
			j := int(ends[rng.Intn(len(ends))])
			if j == i {
				continue
			}
			line = append(line[:0], 'v')
			line = strconv.AppendInt(line, int64(i), 10)
			line = append(line, " v"...)
			line = strconv.AppendInt(line, int64(j), 10)
			line = append(line, '\n')
			sb.Write(line)
			ends = append(ends, int32(i), int32(j))
			if rng.Float64() >= drop {
				tb.Write(line)
			}
		}
	}
	return sb.Bytes(), tb.Bytes()
}

// idTruth pairs every source node with the target node of the same id
// (-1 when the target lost all of that node's edges).
func idTruth(src, tgt *ingest.NodeMap) metrics.Truth {
	truth := make(metrics.Truth, src.Len())
	for s := range truth {
		t, ok := tgt.Index(src.ID(s))
		if !ok {
			t = -1
		}
		truth[s] = t
	}
	return truth
}

// idAttrs joins d-dimensional node features onto an ingested graph by
// node id, the way real pipelines receive features from a second
// source: standard normals from a splitmix64 stream seeded by the id's
// FNV-1a hash, so both sides of a pair agree on a node's features.
func idAttrs(nodes *ingest.NodeMap, d int) *dense.Matrix {
	x := dense.New(nodes.Len(), d)
	for i := 0; i < nodes.Len(); i++ {
		id := nodes.ID(i)
		s := uint64(14695981039346656037)
		for j := 0; j < len(id); j++ {
			s = (s ^ uint64(id[j])) * 1099511628211
		}
		next := func() float64 {
			s += 0x9e3779b97f4a7c15
			z := s
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			return (float64((z^(z>>31))>>11) + 0.5) / (1 << 53)
		}
		for c := 0; c < d; c += 2 {
			r := math.Sqrt(-2 * math.Log(next()))
			theta := 2 * math.Pi * next()
			x.Data[i*d+c] = r * math.Cos(theta)
			if c+1 < d {
				x.Data[i*d+c+1] = r * math.Sin(theta)
			}
		}
	}
	return x
}
