package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"time"

	"github.com/htc-align/htc/internal/align"
	"github.com/htc-align/htc/internal/core"
	"github.com/htc-align/htc/internal/datasets"
	"github.com/htc-align/htc/internal/ingest"
	"github.com/htc-align/htc/internal/metrics"
)

// Options configures a Server. The zero value selects sane defaults.
type Options struct {
	// Workers is the alignment worker-pool size (default 2): how many
	// jobs run concurrently. Each running job is additionally granted a
	// per-job CPU budget of max(1, GOMAXPROCS/Workers) pipeline workers,
	// so the budgets of a full pool sum to at most GOMAXPROCS and
	// concurrent alignments never oversubscribe the machine. Requests may
	// ask for fewer pipeline workers via config.workers, never more.
	Workers int
	// QueueDepth bounds the submission backlog (default 2×Workers).
	QueueDepth int
	// CacheSize bounds the result cache in entries (default 128).
	CacheSize int
	// PreparedCacheSize bounds the prepared-artifact cache in graph
	// pairs (default 8). Each entry pins a pair's graphs, orbit counts
	// and Laplacians, so it is kept far smaller than the result cache.
	PreparedCacheSize int
	// DatasetCacheSize bounds the uploaded-dataset store in entries
	// (default 16, LRU-evicted). Each entry pins two whole graphs plus
	// their id dictionaries; in-flight jobs memoise their pair at
	// admission, so eviction never strands a job.
	DatasetCacheSize int
	// MaxNodes bounds per-graph size at admission (default 20000,
	// negative = unlimited).
	MaxNodes int
	// MaxBodyBytes bounds request bodies (default 32 MiB).
	MaxBodyBytes int64
	// Log receives request/job lines; nil disables logging.
	Log *log.Logger
}

func (o Options) withDefaults() Options {
	if o.Workers < 1 {
		o.Workers = 2
	}
	if o.QueueDepth < 1 {
		o.QueueDepth = 2 * o.Workers
	}
	if o.CacheSize <= 0 {
		o.CacheSize = 128
	}
	if o.PreparedCacheSize <= 0 {
		o.PreparedCacheSize = 8
	}
	if o.DatasetCacheSize <= 0 {
		o.DatasetCacheSize = 16
	}
	if o.MaxNodes == 0 {
		o.MaxNodes = 20000
	}
	if o.MaxNodes < 0 {
		o.MaxNodes = 0 // unlimited
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 32 << 20
	}
	return o
}

// Server is the alignment service: an http.Handler wiring the job queue,
// the result cache and the metrics together.
type Server struct {
	opts    Options
	queue   *Queue
	results *lru[string, AlignResult]
	refines *lru[string, RefineResult]
	// prepared maps a graph pair's content hash (core.PairHash) to its
	// prepared pipeline artifacts, so separate jobs on the same pair — a
	// client re-submitting with new hyperparameters, a sweep following a
	// single align — share one orbit-counting pass and one set of
	// Laplacians. A core.Prepared is concurrency-safe and only ever
	// accretes memoised artifacts, so concurrent jobs may share one.
	prepared *lru[string, *core.Prepared]
	datasets *lru[string, *storedDataset]
	metrics  *Metrics
	mux      *http.ServeMux
	started  time.Time
}

// New assembles a Server and starts its worker pool. Callers must Close
// it to stop the workers.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:     opts,
		results:  newLRU[string, AlignResult](opts.CacheSize),
		refines:  newLRU[string, RefineResult](opts.CacheSize),
		prepared: newLRU[string, *core.Prepared](opts.PreparedCacheSize),
		datasets: newLRU[string, *storedDataset](opts.DatasetCacheSize),
		metrics:  &Metrics{},
		mux:      http.NewServeMux(),
		started:  time.Now(),
	}
	s.queue = NewQueue(opts.Workers, opts.QueueDepth, s.runJob, s.metrics)
	s.mux.HandleFunc("POST /v1/align", s.handleSubmit)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("POST /v1/refine", s.handleRefine)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("PUT /v1/datasets/{id}", s.handleDatasetPut)
	s.mux.HandleFunc("GET /v1/datasets/{id}", s.handleDatasetGet)
	s.mux.HandleFunc("DELETE /v1/datasets/{id}", s.handleDatasetDelete)
	s.mux.HandleFunc("GET /v1/datasets", s.handleDatasetList)
	s.mux.HandleFunc("GET /v1/capabilities", s.handleCapabilities)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close cancels outstanding jobs and stops the worker pool.
func (s *Server) Close() { s.queue.Close() }

// Metrics exposes the counters (used by tests and the binary's shutdown
// summary).
func (s *Server) Metrics() *Metrics { return s.metrics }

// perJobWorkers is the per-job CPU budget of a pool with the given size:
// the machine's cores divided evenly among the jobs that can run at once,
// never below 1. With pool ≤ gomaxprocs the budgets of a saturated pool
// sum to at most gomaxprocs, so N in-flight alignments cannot
// oversubscribe the machine; beyond that each job is already down to its
// 1-worker floor.
func perJobWorkers(gomaxprocs, pool int) int {
	if pool < 1 {
		pool = 1
	}
	w := gomaxprocs / pool
	if w < 1 {
		w = 1
	}
	return w
}

// jobConfig resolves the pipeline config one entry of a job actually
// runs: the requested worker count capped at the server's per-job CPU
// budget (0 = "whatever the server grants"), with progress reported into
// the job's live block. cfgIdx/cfgTotal locate a sweep entry (0 for
// singles).
func (s *Server) jobConfig(job *Job, cfg core.Config, cfgIdx, cfgTotal int) core.Config {
	budget := perJobWorkers(runtime.GOMAXPROCS(0), s.opts.Workers)
	if cfg.Workers <= 0 || cfg.Workers > budget {
		cfg.Workers = budget
	}
	cfg.Progress = func(ev core.Progress) {
		job.SetProgress(ProgressInfo{
			Stage: ev.Stage, Done: ev.Done, Total: ev.Total,
			Config: cfgIdx, Configs: cfgTotal,
		})
	}
	return cfg
}

// runJob is the queue's Runner: materialise the pair, fetch or build its
// prepared artifacts, run the staged pipeline for one config (or a whole
// sweep of them) under the job's context, extract matchings, evaluate,
// cache.
func (s *Server) runJob(ctx context.Context, job *Job) (any, error) {
	pair, err := resolvePair(job.Req, s.opts.MaxNodes)
	if err != nil {
		return nil, err
	}
	if s.opts.MaxNodes > 0 && (pair.Source.N() > s.opts.MaxNodes || pair.Target.N() > s.opts.MaxNodes) {
		return nil, fmt.Errorf("dataset exceeds server limit of %d nodes", s.opts.MaxNodes)
	}
	if job.Req.upload != nil {
		s.metrics.DatasetAlignRuns.Add(1)
	}

	if len(job.Req.Configs) > 0 {
		return s.runSweep(ctx, job, pair)
	}

	cfg := s.jobConfig(job, job.Req.Config, 0, 0)
	prep, prepHit, err := s.preparedFor(ctx, pair, cfg)
	if err != nil {
		return nil, err
	}
	out, err := s.alignConfig(ctx, job, pair, prep, cfg, job.CacheKey, prepHit, !prepHit)
	if err != nil {
		return nil, err
	}
	if s.opts.Log != nil {
		s.opts.Log.Printf("job %s done in %.0fms (%d pairs)", job.ID, out.TimingsMS.Total, len(out.Pairs))
	}
	return out, nil
}

// runSweep executes every config of a sweep job over one shared Prepared
// pair: stages 1–2 run at most once per aggregation family for the whole
// sweep (and not at all on an artifact-cache hit). Each entry's result
// lands in the single-config result cache under the identity of the
// equivalent /v1/align request, so sweeps and individual submissions
// share cache entries both ways. Per-entry pipeline errors are recorded
// in the entry; only cancellation aborts the job.
func (s *Server) runSweep(ctx context.Context, job *Job, pair *datasets.Pair) (*SweepResult, error) {
	configs := job.Req.Configs
	s.metrics.SweepConfigs.Add(int64(len(configs)))
	sweep := &SweepResult{Results: make([]SweepEntry, len(configs))}

	// Resolve the per-config cache keys (precomputed by the submit
	// handler; recomputed only if this job arrived without them) and
	// probe the result cache for every entry up front — a sweep must
	// never pay an artifact build on behalf of entries it won't run.
	keys := make([]string, len(configs))
	pending := make([]int, 0, len(configs))
	for i, reqCfg := range configs {
		entry := &sweep.Results[i]
		entry.Config = canonicalConfig(reqCfg)
		if i < len(job.Req.sweepKeys) {
			keys[i] = job.Req.sweepKeys[i]
		} else {
			k, err := cacheKey(job.Req.singleRequest(reqCfg))
			if err != nil {
				entry.Error = err.Error()
				continue
			}
			keys[i] = k
		}
		if cached := s.cachedResult(keys[i]); cached != nil {
			s.metrics.CacheHits.Add(1)
			entry.Result = cached
			continue
		}
		s.metrics.CacheMisses.Add(1)
		pending = append(pending, i)
	}
	if len(pending) == 0 {
		// Every entry was served from the result cache (they must have
		// been cached after the submit-time check): nothing to prepare.
		sweep.PairHash = core.PairHash(pair.Source, pair.Target)
		sweep.PreparedCached = true
		return sweep, nil
	}

	// Prepare (or fetch) the shared artifacts, seeded by the first config
	// that actually runs.
	prep, prepHit, err := s.preparedFor(ctx, pair, s.jobConfig(job, configs[pending[0]], pending[0]+1, len(configs)))
	if err != nil {
		return nil, err
	}
	sweep.PairHash = prep.Hash()
	sweep.PreparedCached = prepHit
	// The eager artifact build inside Prepare is paid once for the whole
	// sweep; attribute it to the first entry that actually runs, so the
	// per-entry stage decompositions sum to the job's true cost.
	foldPrep := !prepHit
	for _, i := range pending {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		entry := &sweep.Results[i]
		cfg := s.jobConfig(job, configs[i], i+1, len(configs))
		out, err := s.alignConfig(ctx, job, pair, prep, cfg, keys[i], prepHit || i != pending[0], foldPrep)
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			entry.Error = err.Error()
			continue
		}
		foldPrep = false
		entry.Result = out
	}
	if s.opts.Log != nil {
		s.opts.Log.Printf("job %s swept %d configs, %d run (pair %.12s…)", job.ID, len(sweep.Results), len(pending), sweep.PairHash)
	}
	return sweep, nil
}

// alignConfig runs one resolved config of a job over its prepared pair,
// converts the outcome into the API payload and caches it under key.
// prepCached reports that the run reuses artifacts it did not build;
// foldPrep charges Prepare's eager artifact build to this run's stage
// decomposition, like the one-shot API does.
func (s *Server) alignConfig(ctx context.Context, job *Job, pair *datasets.Pair, prep *core.Prepared, cfg core.Config, key string, prepCached, foldPrep bool) (*AlignResult, error) {
	res, err := prep.AlignContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	s.metrics.recordBackend(res)
	if foldPrep {
		prep.FoldPrepareTimings(&res.Timings)
	}
	out := buildResult(res, pair, job.Req.cutoffs())
	out.PreparedCached = prepCached
	s.results.put(key, *out)
	return out, nil
}

// cachedResult returns a copy of the result cached under key, flagged
// Cached, or nil on a miss.
func (s *Server) cachedResult(key string) *AlignResult {
	res, ok := s.results.get(key)
	if !ok {
		return nil
	}
	res.Cached = true
	return &res
}

// preparedFor returns the pair's prepared artifacts, reusing the
// cross-job artifact cache when the same graphs (by content hash) were
// prepared before, and preparing + caching them otherwise.
func (s *Server) preparedFor(ctx context.Context, pair *datasets.Pair, cfg core.Config) (*core.Prepared, bool, error) {
	key := core.PairHash(pair.Source, pair.Target)
	if prep, ok := s.prepared.get(key); ok {
		s.metrics.PreparedHits.Add(1)
		return prep, true, nil
	}
	s.metrics.PreparedMisses.Add(1)
	prep, err := core.PrepareContext(ctx, pair.Source, pair.Target, cfg)
	if err != nil {
		return nil, false, err
	}
	s.prepared.put(key, prep)
	return prep, false, nil
}

// buildResult converts a pipeline result into the API payload: one-to-one
// matching, per-orbit report, stage timings, optional evaluation. Every
// score consumer goes through the result's Sim, so top-k jobs never
// materialise a dense matrix inside the server either.
func buildResult(res *core.Result, pair *datasets.Pair, qs []int) *AlignResult {
	out := &AlignResult{
		Pairs:         matchPairs(res.MatchOneToOne()),
		PerOrbit:      make([]OrbitReport, len(res.PerOrbit)),
		TimingsMS:     stageMS(res.Timings),
		EpochsTrained: len(res.LossHistory),
		WorkersUsed:   res.Workers,
		SimBackend:    res.SimBackend,
		Precision:     res.Precision,
		CandidateK:    res.CandidateK,
		AnnBits:       res.AnnBits,
		AnnProbes:     res.AnnProbes,
		AnnPoolCap:    res.AnnPoolCap,
		Ann:           res.Ann,
	}
	out.PairsNamed = namedPairs(out.Pairs, pair)
	for i, o := range res.PerOrbit {
		out.PerOrbit[i] = OrbitReport{Orbit: o.Orbit, Trusted: o.Trusted, Gamma: o.Gamma, Iters: o.Iters}
	}
	out.Eval = evalReport(res.Sim, pair.Truth, qs)
	if res.PreRefineSim != nil {
		out.RefineMNC = res.RefineMNC
		out.RefineTokenK = res.RefineTokenK
		out.EvalPreRefine = evalReport(res.PreRefineSim, pair.Truth, qs)
	}
	return out
}

// matchPairs lists a matching's (source node, target node) index pairs
// in source order, skipping unmatched sources.
func matchPairs(match []int) [][2]int {
	pairs := make([][2]int, 0, len(match))
	for src, tgt := range match {
		if tgt >= 0 {
			pairs = append(pairs, [2]int{src, tgt})
		}
	}
	return pairs
}

// namedPairs mirrors index pairs through the pair's external node ids,
// so clients of real datasets read predictions back by name. Identity
// dictionaries (synthetic pairs, plain inline specs) would only repeat
// the indices, so they give nil and the payload stays index-only.
func namedPairs(pairs [][2]int, pair *datasets.Pair) [][2]string {
	if pair.SourceIDs == nil || pair.TargetIDs == nil ||
		(pair.SourceIDs.IsIdentity() && pair.TargetIDs.IsIdentity()) {
		return nil
	}
	named := make([][2]string, len(pairs))
	for i, p := range pairs {
		named[i] = [2]string{pair.SourceIDs.ID(p[0]), pair.TargetIDs.ID(p[1])}
	}
	return named
}

// evalReport scores sim against the pair's ground truth at the cutoffs
// qs; nil when the pair has no anchors.
func evalReport(sim align.Sim, truth metrics.Truth, qs []int) *EvalReport {
	if truth.NumAnchors() == 0 {
		return nil
	}
	rep := metrics.EvaluateSim(sim, truth, qs...)
	return &EvalReport{PrecisionAt: rep.PrecisionAt, MRR: rep.MRR, Anchors: rep.Anchors}
}

// decodeBody decodes a JSON request body into v: a body over the size
// limit is a 413; malformed JSON, an unknown field or data after the
// first JSON value is a 400. A false return means the error response was
// already written.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := ingest.DecodeStrict(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes), v)
	var tooLarge *http.MaxBytesError
	var trailing *ingest.TrailingDataError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("body exceeds %d bytes", tooLarge.Limit))
	case errors.As(err, &trailing):
		writeError(w, http.StatusBadRequest, "trailing data after request body")
	default:
		writeError(w, http.StatusBadRequest, "malformed JSON: "+err.Error())
	}
	return false
}

// decodeRequest parses and validates a submission body; a nil return
// means the error response was already written.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request) *AlignRequest {
	var req AlignRequest
	if !s.decodeBody(w, r, &req) {
		return nil
	}
	if err := req.validate(s.opts.MaxNodes, s.datasets); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return nil
	}
	return &req
}

// handleDatasetPut ingests a dataset upload: both graphs through the
// format registry, the ID-keyed truth through the resulting node maps.
// It answers 201 on first upload and 200 on replacement.
func (s *Server) handleDatasetPut(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := validDatasetID(id); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	var up DatasetUpload
	if !s.decodeBody(w, r, &up) {
		return
	}
	ds, err := buildDataset(id, &up, s.opts.MaxNodes, time.Now().UTC())
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	replaced, evicted := s.datasets.put(id, ds)
	s.metrics.DatasetUploads.Add(1)
	s.metrics.DatasetEvictions.Add(int64(evicted))
	if s.opts.Log != nil {
		s.opts.Log.Printf("dataset %s uploaded (%d+%d nodes, %d anchors, pair %.12s…)",
			id, ds.info.Source.Nodes, ds.info.Target.Nodes, ds.info.Anchors, ds.info.PairHash)
	}
	code := http.StatusCreated
	if replaced {
		code = http.StatusOK
	}
	writeJSON(w, code, ds.info)
}

func (s *Server) handleDatasetGet(w http.ResponseWriter, r *http.Request) {
	ds, ok := s.datasets.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such uploaded dataset")
		return
	}
	writeJSON(w, http.StatusOK, ds.info)
}

func (s *Server) handleDatasetDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.datasets.delete(id) {
		writeError(w, http.StatusNotFound, "no such uploaded dataset")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "deleted": true})
}

// handleDatasetList reports the built-in generator names alongside the
// uploaded datasets' metadata (most recently used first).
func (s *Server) handleDatasetList(w http.ResponseWriter, r *http.Request) {
	stored := s.datasets.values()
	uploaded := make([]DatasetInfo, len(stored))
	for i, ds := range stored {
		uploaded[i] = ds.info
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"builtin":  Datasets(),
		"uploaded": uploaded,
	})
}

// enqueue submits a validated request and writes the job response.
func (s *Server) enqueue(w http.ResponseWriter, req *AlignRequest, cacheKey, kind string) {
	job, err := s.queue.Submit(req, cacheKey)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "queue is full, retry later")
		return
	case errors.Is(err, ErrQueueClosed):
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if s.opts.Log != nil {
		s.opts.Log.Printf("%s job %s queued (dataset=%q inline=%v)", kind, job.ID, req.Dataset, req.Source != nil)
	}
	info := job.Info()
	info.QueuePosition = s.queue.Position(job)
	writeJSON(w, http.StatusAccepted, info)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req := s.decodeRequest(w, r)
	if req == nil {
		return
	}
	if err := req.validateSingle(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	key, err := cacheKey(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	if cached := s.cachedResult(key); cached != nil {
		s.metrics.CacheHits.Add(1)
		job := s.queue.Record(req, key, cached)
		writeJSON(w, http.StatusOK, job.Info())
		return
	}
	s.metrics.CacheMisses.Add(1)
	s.enqueue(w, req, key, "align")
}

// handleSweep accepts a multi-config submission: the same pair coordinates
// as /v1/align plus a configs list. When every entry is already in the
// result cache the sweep is assembled and answered immediately (200);
// otherwise it queues as one job that shares a single prepared pair across
// all entries.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	req := s.decodeRequest(w, r)
	if req == nil {
		return
	}
	if err := req.validateSweep(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	keys := make([]string, len(req.Configs))
	for i, cfg := range req.Configs {
		key, err := cacheKey(req.singleRequest(cfg))
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		keys[i] = key
	}
	req.sweepKeys = keys

	// Serve entirely from cache when possible — the sweep analogue of the
	// single-submit cache-hit path.
	sweep := &SweepResult{PreparedCached: true, Results: make([]SweepEntry, len(req.Configs))}
	allCached := true
	for i, cfg := range req.Configs {
		cached := s.cachedResult(keys[i])
		if cached == nil {
			allCached = false
			break
		}
		sweep.Results[i] = SweepEntry{Config: canonicalConfig(cfg), Result: cached}
	}
	if allCached {
		s.metrics.CacheHits.Add(int64(len(keys)))
		s.metrics.SweepConfigs.Add(int64(len(keys)))
		job := s.queue.Record(req, "", sweep)
		writeJSON(w, http.StatusOK, job.Info())
		return
	}

	s.enqueue(w, req, "", "sweep")
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.queue.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	info := job.Info()
	if info.Status == StatusQueued {
		info.QueuePosition = s.queue.Position(job)
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.queue.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	job.Cancel()
	writeJSON(w, http.StatusAccepted, job.Info())
}

// handleCapabilities reports what this server build can do — the
// similarity backend roster (with the ANN knobs each accepts), the
// registered ingest formats, the pipeline variants and the admission
// limits — so clients can discover features instead of probing for 400s.
func (s *Server) handleCapabilities(w http.ResponseWriter, r *http.Request) {
	backends := make([]SimBackendInfo, 0, len(core.SimBackends()))
	for _, b := range core.SimBackends() {
		info := SimBackendInfo{Name: b.String()}
		switch b {
		case core.SimTopK:
			info.Knobs = []string{"candidate_k"}
		case core.SimANN:
			info.Knobs = []string{"candidate_k", "ann_bits", "ann_probes", "ann_pool_cap"}
		}
		backends = append(backends, info)
	}
	variants := make([]string, 0, len(core.Variants()))
	for _, v := range core.Variants() {
		variants = append(variants, v.String())
	}
	precisions := make([]string, 0, len(core.Precisions()))
	for _, p := range core.Precisions() {
		precisions = append(precisions, p.String())
	}
	writeJSON(w, http.StatusOK, Capabilities{
		SimilarityBackends: backends,
		Precisions:         precisions,
		IngestFormats:      ingest.Formats(),
		Variants:           variants,
		Datasets:           Datasets(),
		MaxNodes:           s.opts.MaxNodes,
		MaxSweepConfigs:    MaxSweepConfigs,
		Refine: RefineCaps{
			Knobs:        []string{"refine_iters", "refine_token_k"},
			DefaultIters: DefaultRefineIters,
			MaxIters:     MaxRefineIters,
		},
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	depth, capacity := s.queue.Depth()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":           "ok",
		"uptime_seconds":   time.Since(s.started).Seconds(),
		"workers":          s.queue.Workers(),
		"workers_per_job":  perJobWorkers(runtime.GOMAXPROCS(0), s.opts.Workers),
		"queue_depth":      depth,
		"queue_capacity":   capacity,
		"jobs_tracked":     s.queue.Len(),
		"cache_entries":    s.results.len(),
		"prepared_entries": s.prepared.len(),
		"dataset_entries":  s.datasets.len(),
		"datasets":         Datasets(),
		"ingest_formats":   ingest.Formats(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	depth, capacity := s.queue.Depth()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.writePrometheus(w, map[string]float64{
		"htc_queue_depth":      float64(depth),
		"htc_queue_capacity":   float64(capacity),
		"htc_workers":          float64(s.queue.Workers()),
		"htc_cache_entries":    float64(s.results.len()),
		"htc_refine_entries":   float64(s.refines.len()),
		"htc_prepared_entries": float64(s.prepared.len()),
		"htc_dataset_entries":  float64(s.datasets.len()),
		"htc_uptime_seconds":   time.Since(s.started).Seconds(),
		"htc_jobs_tracked":     float64(s.queue.Len()),
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// Headers are gone; nothing more to do than drop the conn.
		_ = err
	}
}

// ErrorBody is the uniform error envelope of every /v1 endpoint:
//
//	{"error": {"code": "bad_request", "message": "..."}}
//
// The code is a stable, machine-readable slug derived from the HTTP
// status; the message is human-readable detail. Clients should branch on
// the code (or the HTTP status), never on message text.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail is the inner object of the error envelope.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// errorCode maps an HTTP status to the envelope's stable slug.
func errorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusRequestEntityTooLarge:
		return "too_large"
	case http.StatusTooManyRequests:
		return "queue_full"
	case http.StatusServiceUnavailable:
		return "shutting_down"
	}
	return "internal"
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, ErrorBody{Error: ErrorDetail{Code: errorCode(code), Message: msg}})
}
