// Package server turns the HTC pipeline into a long-running alignment
// service: an HTTP API (submit, poll, cancel) backed by an in-process job
// queue with a bounded worker pool, a content-addressed result cache, and
// Prometheus-style metrics. The heavy lifting stays in internal/core; this
// package contributes admission control, concurrency and serialisation.
//
// Endpoints:
//
//	POST   /v1/align         submit an alignment job (202; 200 on cache hit)
//	POST   /v1/sweep         run several configs over one shared prepared pair
//	POST   /v1/refine        RefiNA-refine a finished job's or an uploaded matching
//	GET    /v1/jobs/{id}     job status, queue position, live progress, result
//	DELETE /v1/jobs/{id}     cancel a queued or running job
//	PUT    /v1/datasets/{id} upload a real dataset (any registered format)
//	GET    /v1/datasets/{id} uploaded dataset metadata
//	DELETE /v1/datasets/{id} remove an uploaded dataset
//	GET    /v1/datasets      list built-in and uploaded datasets
//	GET    /v1/capabilities  feature roster: backends, formats, variants
//	GET    /v1/healthz       liveness + queue occupancy
//	GET    /v1/metrics       Prometheus text metrics
//
// The server runs the staged pipeline API: each job Prepares its graph
// pair (or reuses another job's Prepared via a content-hash artifact
// cache) and Aligns configs against it, so repeated work on one pair
// never re-pays the orbit-counting and Laplacian construction stages.
// Uploaded datasets are content-hashed into the same caches: re-uploading
// identical graphs under a new id still hits both.
//
// An align job is a sweep of one. POST /v1/align and POST /v1/sweep share
// one admission path: it resolves a request to its entries (the config,
// or the configs list) and one result-cache key per entry, answers 200
// when the cache holds every entry and otherwise queues one job. The job
// runs one loop: it probes each entry's key again, so an entry an
// identical twin cached while the job waited is served from the cache,
// then prepares the pair once and aligns the entries that missed.
package server

import (
	"fmt"
	"reflect"
	"sort"
	"time"

	"github.com/htc-align/htc/internal/core"
	"github.com/htc-align/htc/internal/datasets"
	"github.com/htc-align/htc/internal/ingest"
	"github.com/htc-align/htc/internal/metrics"
)

// GraphSpec carries one network inline in a request: an edge list over
// nodes 0..Nodes−1, an optional attribute matrix (one row per node) and
// an optional id list naming the nodes. Self-loops and duplicate edges
// are ignored and out-of-range endpoints rejected — graph.Builder's
// uniform validation policy, shared with every ingest format reader.
type GraphSpec = ingest.GraphSpec

// AlignRequest is the body of POST /v1/align and POST /v1/sweep. A
// request names either a built-in dataset (Dataset, with N/DataSeed/Remove
// tuning the generator) or carries both graphs inline (Source/Target, with
// an optional Truth map enabling evaluation). Config selects the pipeline
// hyperparameters; omitted fields mean the paper's defaults.
type AlignRequest struct {
	// Dataset names a built-in pair (see Datasets()) or a dataset
	// previously uploaded via PUT /v1/datasets/{id}; uploads win name
	// collisions never — upload ids may not shadow built-ins.
	Dataset string `json:"dataset,omitempty"`
	// N scales the built-in dataset (0 = the generator's default size).
	N int `json:"n,omitempty"`
	// DataSeed seeds the dataset generator (not the pipeline).
	DataSeed int64 `json:"data_seed,omitempty"`
	// Remove is the edge-removal ratio used to derive the target from
	// single-network datasets (econ, bn, ppi, synthetic); default 0.1.
	Remove float64 `json:"remove,omitempty"`

	// Source and Target carry an inline graph pair.
	Source *GraphSpec `json:"source,omitempty"`
	Target *GraphSpec `json:"target,omitempty"`
	// Truth optionally maps each source node to its true target anchor
	// (−1 = unknown) so the server can report precision/MRR.
	Truth []int `json:"truth,omitempty"`
	// TruthPairs is the name-keyed alternative to Truth for inline
	// pairs whose specs carry ids: (source id, target id) anchor pairs,
	// resolved through the specs' id lists at admission.
	TruthPairs [][2]string `json:"truth_pairs,omitempty"`

	// Config holds the pipeline hyperparameters (zero value = paper
	// defaults). Single-config requests (POST /v1/align) use it; sweep
	// requests must leave it empty and list Configs instead.
	Config core.Config `json:"config"`
	// Configs lists the pipeline configurations of a sweep (POST
	// /v1/sweep): every config runs over one shared prepared pair, so
	// the expensive config-independent stages are paid once for the
	// whole sweep. At most MaxSweepConfigs entries.
	Configs []core.Config `json:"configs,omitempty"`
	// HitsAt lists the precision@q cutoffs to evaluate (default 1, 5, 10).
	HitsAt []int `json:"hits_at,omitempty"`

	// builtPair memoises the pair materialised during validation —
	// inline graphs so the worker doesn't rebuild (and re-scan the
	// attrs of) large requests, uploaded datasets so a store eviction
	// or deletion between submit and run cannot strand the job.
	builtPair *datasets.Pair
	// upload is the stored dataset the request resolved to (nil for
	// built-ins and inline pairs); its content hash keys the result
	// cache instead of the mutable dataset id.
	upload *storedDataset
	// entries are the configs the job runs, resolved at admission: Config
	// alone on POST /v1/align, Configs on POST /v1/sweep. keys holds one
	// result-cache key per entry, so the worker never re-serialises a
	// large inline pair.
	entries []core.Config
	keys    []string
}

// validate performs the request checks that don't require running the
// pipeline, then resolves the entries the endpoint runs (sweep selects
// POST /v1/sweep's shape) and their result-cache keys; every failure
// maps to a 400. store resolves dataset names that refer to uploads.
func (r *AlignRequest) validate(maxNodes int, store *lru[string, *storedDataset], sweep bool) error {
	inline := r.Source != nil || r.Target != nil
	switch {
	case r.Dataset != "" && inline:
		return fmt.Errorf("request must name a dataset or carry inline graphs, not both")
	case r.Dataset == "" && !inline:
		return fmt.Errorf("request needs either a dataset name or inline source+target graphs")
	case inline && (r.Source == nil || r.Target == nil):
		return fmt.Errorf("inline requests need both source and target graphs")
	}
	if r.Dataset != "" {
		if ds, ok := store.get(r.Dataset); ok {
			// An uploaded dataset is self-contained: the generator knobs
			// and truth of the other request shapes don't apply.
			switch {
			case r.N != 0:
				return fmt.Errorf("n applies to built-in generators, not uploaded dataset %q", r.Dataset)
			case r.DataSeed != 0:
				return fmt.Errorf("data_seed applies to built-in generators, not uploaded dataset %q", r.Dataset)
			case r.Remove != 0:
				return fmt.Errorf("remove applies to built-in generators, not uploaded dataset %q", r.Dataset)
			case len(r.Truth) > 0 || len(r.TruthPairs) > 0:
				return fmt.Errorf("uploaded dataset %q carries its own ground truth", r.Dataset)
			}
			r.upload = ds
			r.builtPair = ds.pair
		} else {
			if _, err := lookupDataset(r.Dataset); err != nil {
				return err
			}
			if maxNodes > 0 && r.N > maxNodes {
				return fmt.Errorf("n=%d exceeds server limit of %d nodes", r.N, maxNodes)
			}
			if len(r.Truth) > 0 || len(r.TruthPairs) > 0 {
				return fmt.Errorf("truth is implied by built-in datasets; only inline requests may carry it")
			}
		}
	}
	if r.N < 0 {
		return fmt.Errorf("n=%d is negative (0 selects the generator's default size)", r.N)
	}
	if r.Remove < 0 || r.Remove >= 1 {
		return fmt.Errorf("remove=%v outside [0,1)", r.Remove)
	}
	if inline {
		if err := r.buildInline(maxNodes); err != nil {
			return err
		}
	}
	if err := validateHitsAt(r.HitsAt); err != nil {
		return err
	}
	if err := validateSimilarity(r.Config, r.builtPair); err != nil {
		return err
	}
	for i, cfg := range r.Configs {
		if err := validateSimilarity(cfg, r.builtPair); err != nil {
			return fmt.Errorf("configs[%d]: %w", i, err)
		}
	}
	return r.resolveEntries(sweep)
}

// buildInline materialises and validates an inline graph pair — specs,
// id lists, and whichever truth shape the request carries — memoising
// the result for the worker.
func (r *AlignRequest) buildInline(maxNodes int) error {
	gs, err := r.Source.Build(maxNodes)
	if err != nil {
		return fmt.Errorf("source: %w", err)
	}
	gt, err := r.Target.Build(maxNodes)
	if err != nil {
		return fmt.Errorf("target: %w", err)
	}
	srcIDs, err := r.Source.NodeMap()
	if err != nil {
		return fmt.Errorf("source: %w", err)
	}
	tgtIDs, err := r.Target.NodeMap()
	if err != nil {
		return fmt.Errorf("target: %w", err)
	}
	pair := &datasets.Pair{Name: "inline", Source: gs, Target: gt, SourceIDs: srcIDs, TargetIDs: tgtIDs}
	if len(r.Truth) > 0 && len(r.TruthPairs) > 0 {
		return fmt.Errorf("carry truth (index-keyed) or truth_pairs (id-keyed), not both")
	}
	if len(r.Truth) > 0 {
		if len(r.Truth) != r.Source.Nodes {
			return fmt.Errorf("truth has %d entries for %d source nodes", len(r.Truth), r.Source.Nodes)
		}
		for s, t := range r.Truth {
			// Valid entries are a target node or −1 ("unknown");
			// anything below −1 is a client bug that the metrics
			// layer would otherwise silently score as unknown.
			if t < -1 || t >= r.Target.Nodes {
				return fmt.Errorf("truth[%d]=%d outside %d target nodes (use -1 for unknown)", s, t, r.Target.Nodes)
			}
		}
		pair.Truth = append(metrics.Truth(nil), r.Truth...)
	}
	if len(r.TruthPairs) > 0 {
		truth, err := metrics.TruthFromPairs(r.TruthPairs, srcIDs, tgtIDs)
		if err != nil {
			return fmt.Errorf("truth_pairs: %w", err)
		}
		pair.Truth = truth
		// Canonicalise into the index-keyed form so equivalent
		// name-keyed and index-keyed requests share one cache identity.
		r.Truth = truth
		r.TruthPairs = nil
	}
	r.builtPair = pair
	return nil
}

// validateSimilarity rejects contradictory similarity settings at
// admission — out-of-range knobs, and knobs the resolved backend would
// silently ignore (candidate_k under dense, the ann_* knobs under
// dense or topk). Inline and uploaded pairs are already materialised at
// this point, so the check runs against the backend the run will
// actually resolve to; built-in generator requests check sizelessly (the
// worker's AlignContext re-checks against the concrete pair).
func validateSimilarity(cfg core.Config, pair *datasets.Pair) error {
	var ns, nt int
	if pair != nil {
		ns, nt = pair.Source.N(), pair.Target.N()
	}
	return cfg.ValidateSimilarity(ns, nt)
}

// MaxSweepConfigs bounds how many configurations one sweep may carry:
// enough for a full Table-III variant roster plus a hyperparameter grid,
// small enough that a single job cannot monopolise a worker forever.
const MaxSweepConfigs = 32

// resolveEntries applies the endpoint's shape rule — an align request
// runs its one config; a sweep runs 1..MaxSweepConfigs configs and
// leaves the singular config empty — and keys each entry under the
// identity of the equivalent /v1/align request, so sweeps and single
// submissions share result-cache entries both ways.
func (r *AlignRequest) resolveEntries(sweep bool) error {
	switch {
	case !sweep && len(r.Configs) > 0:
		return fmt.Errorf("config lists belong to POST /v1/sweep; /v1/align takes a single config")
	case !sweep:
		r.entries = []core.Config{r.Config}
	case len(r.Configs) == 0:
		return fmt.Errorf("sweep requests need a non-empty configs list")
	case len(r.Configs) > MaxSweepConfigs:
		return fmt.Errorf("at most %d configs per sweep, got %d", MaxSweepConfigs, len(r.Configs))
	case !reflect.DeepEqual(r.Config, core.Config{}):
		return fmt.Errorf("sweep requests list configurations under configs; the singular config field must be empty")
	default:
		r.entries = r.Configs
	}
	one := *r
	r.keys = make([]string, len(r.entries))
	for i, cfg := range r.entries {
		one.Config = cfg
		key, err := cacheKey(&one)
		if err != nil {
			return err
		}
		r.keys[i] = key
	}
	return nil
}

// payload is what a finished job holds: an align job's one result, or
// the whole sweep.
func (r *AlignRequest) payload(sweep *SweepResult) any {
	if len(r.Configs) == 0 {
		return sweep.Results[0].Result
	}
	return sweep
}

// cutoffs returns the sorted, deduplicated precision@q cutoffs, applying
// the default when the request names none.
func (r *AlignRequest) cutoffs() []int { return sortedCutoffs(r.HitsAt) }

// validateHitsAt checks a hits_at list, the one cutoff rule /v1/align
// and /v1/refine share: every cutoff ≥ 1, at most 16 of them.
func validateHitsAt(hitsAt []int) error {
	for _, q := range hitsAt {
		if q < 1 {
			return fmt.Errorf("hits_at cutoffs must be ≥ 1, got %d", q)
		}
	}
	if len(hitsAt) > 16 {
		return fmt.Errorf("at most 16 hits_at cutoffs, got %d", len(hitsAt))
	}
	return nil
}

// sortedCutoffs normalises a hits_at list — sorted, deduplicated,
// defaulting to 1/5/10 — the one cutoff policy /v1/align and /v1/refine
// share.
func sortedCutoffs(hitsAt []int) []int {
	if len(hitsAt) == 0 {
		return []int{1, 5, 10}
	}
	qs := append([]int(nil), hitsAt...)
	sort.Ints(qs)
	out := qs[:0]
	for i, q := range qs {
		if i == 0 || q != qs[i-1] {
			out = append(out, q)
		}
	}
	return out
}

// OrbitReport mirrors core.OrbitOutcome with JSON tags.
type OrbitReport struct {
	Orbit   int     `json:"orbit"`
	Trusted int     `json:"trusted"`
	Gamma   float64 `json:"gamma"`
	Iters   int     `json:"iters"`
}

// EvalReport carries the accuracy of a run against ground truth.
type EvalReport struct {
	// PrecisionAt maps the cutoff q to precision@q (Hits@q / anchors).
	PrecisionAt map[int]float64 `json:"precision_at"`
	MRR         float64         `json:"mrr"`
	Anchors     int             `json:"anchors"`
}

// StageMS decomposes a run's wall-clock cost in milliseconds, the JSON
// face of core.StageTimings. The *_bytes fields mirror the per-stage
// heap-allocation deltas (process-global TotalAlloc sampled at the stage
// boundaries — an observability signal, not exact attribution).
type StageMS struct {
	OrbitCounting      float64 `json:"orbit_counting"`
	Laplacians         float64 `json:"laplacians"`
	Training           float64 `json:"training"`
	FineTuning         float64 `json:"fine_tuning"`
	Integration        float64 `json:"integration"`
	Refinement         float64 `json:"refinement,omitempty"`
	Total              float64 `json:"total"`
	OrbitCountingBytes uint64  `json:"orbit_counting_bytes"`
	LaplaciansBytes    uint64  `json:"laplacians_bytes"`
	TrainingBytes      uint64  `json:"training_bytes"`
	FineTuningBytes    uint64  `json:"fine_tuning_bytes"`
	IntegrationBytes   uint64  `json:"integration_bytes"`
	RefinementBytes    uint64  `json:"refinement_bytes,omitempty"`
	TotalBytes         uint64  `json:"total_bytes"`
}

func stageMS(t core.StageTimings) StageMS {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return StageMS{
		OrbitCounting: ms(t.OrbitCounting), Laplacians: ms(t.Laplacians),
		Training: ms(t.Training), FineTuning: ms(t.FineTuning),
		Integration: ms(t.Integration), Refinement: ms(t.Refinement), Total: ms(t.Total),
		OrbitCountingBytes: t.OrbitCountingBytes, LaplaciansBytes: t.LaplaciansBytes,
		TrainingBytes: t.TrainingBytes, FineTuningBytes: t.FineTuningBytes,
		IntegrationBytes: t.IntegrationBytes, RefinementBytes: t.RefinementBytes, TotalBytes: t.TotalBytes,
	}
}

// AlignResult is the payload of a completed job.
type AlignResult struct {
	// Pairs is the one-to-one matching: (source node, target node).
	Pairs [][2]int `json:"pairs"`
	// PairsNamed mirrors Pairs through the dataset's external node ids.
	// It is present when the pair carries a non-trivial id dictionary —
	// uploaded datasets and inline specs with ids.
	PairsNamed [][2]string `json:"pairs_named,omitempty"`
	// PerOrbit reports each orbit's trusted-pair count and posterior
	// weight.
	PerOrbit []OrbitReport `json:"per_orbit"`
	// Eval is present when ground truth was available. On refined runs
	// (config.refine_iters > 0) it scores the refined alignment;
	// EvalPreRefine then holds the stage-5 numbers for comparison.
	Eval *EvalReport `json:"eval,omitempty"`
	// EvalPreRefine scores the pre-refinement alignment of a refined run
	// against the same truth, so clients read refined and unrefined
	// quality side by side. Absent when refinement was off.
	EvalPreRefine *EvalReport `json:"eval_pre_refine,omitempty"`
	// RefineMNC traces matched-neighborhood consistency across refinement
	// iterations (entry 0 = before refinement). Absent when refinement
	// was off.
	RefineMNC []float64 `json:"refine_mnc,omitempty"`
	// RefineTokenK is the token-match budget refinement resolved to
	// (absent when refinement was off).
	RefineTokenK int `json:"refine_token_k,omitempty"`
	// TimingsMS decomposes the run's cost by pipeline stage.
	TimingsMS StageMS `json:"timings_ms"`
	// EpochsTrained is the number of training epochs actually run.
	EpochsTrained int `json:"epochs_trained"`
	// WorkersUsed is the pipeline CPU budget the job ran with: the
	// requested config.workers capped at the server's per-job share of
	// the machine (GOMAXPROCS divided by the worker-pool size).
	WorkersUsed int `json:"workers_used,omitempty"`
	// SimBackend is the similarity backend the run resolved to ("dense",
	// "topk" or "ann") — auto configs report their concrete choice.
	SimBackend string `json:"sim_backend"`
	// Precision is the compute tier the fine-tune similarity ran at
	// ("f64" or "f32") — auto configs report their concrete choice.
	Precision string `json:"precision"`
	// CandidateK is the per-node candidate count of a top-k or ann run
	// (absent on dense runs).
	CandidateK int `json:"candidate_k,omitempty"`
	// AnnBits and AnnProbes are the resolved LSH parameters of an ann
	// run — configured or auto-sized (absent on dense and topk runs).
	AnnBits   int `json:"ann_bits,omitempty"`
	AnnProbes int `json:"ann_probes,omitempty"`
	// AnnPoolCap echoes the configured per-query re-rank pool bound of an
	// ann run (absent when unbounded, and on dense and topk runs).
	AnnPoolCap int `json:"ann_pool_cap,omitempty"`
	// Ann is the skew-observability block of an ann run: hash balance
	// (bucket occupancy, re-hashed hot buckets) and per-query pool work.
	// Absent on dense and topk runs.
	Ann *core.AnnStats `json:"ann_stats,omitempty"`
	// Cached reports that the result was served from the content-hash
	// cache rather than recomputed.
	Cached bool `json:"cached"`
	// PreparedCached reports a prepared-pair cache hit: the run took its
	// pair's prepared artifacts from the server's artifact cache, or from
	// an earlier entry of its sweep, instead of preparing the pair. An
	// orbit-count or Laplacian family that no earlier run built is still
	// built by this run, and its timings carry it.
	PreparedCached bool `json:"prepared_cached,omitempty"`
}

// SweepEntry is one configuration's outcome within a sweep job.
type SweepEntry struct {
	// Config is the normalised configuration the entry ran (defaults
	// applied, worker budget stripped).
	Config core.Config `json:"config"`
	// Result is the entry's alignment outcome; nil when Error is set.
	Result *AlignResult `json:"result,omitempty"`
	// Error carries a per-entry failure without failing the whole sweep.
	Error string `json:"error,omitempty"`
}

// SweepResult is the payload of a completed sweep job.
type SweepResult struct {
	// PairHash is the content hash of the shared graph pair — the key
	// under which its prepared artifacts are cached across jobs. Empty
	// when the whole sweep was assembled from the result cache without
	// ever materialising the graphs.
	PairHash string `json:"pair_hash,omitempty"`
	// PreparedCached reports a prepared-pair cache hit: the sweep took
	// an earlier job's prepared pair from the artifact cache rather than
	// preparing its own.
	PreparedCached bool `json:"prepared_cached"`
	// Results holds one entry per requested config, in request order.
	Results []SweepEntry `json:"results"`
}

// SimBackendInfo describes one similarity backend in the capabilities
// payload: its config name and the config knobs it accepts.
type SimBackendInfo struct {
	Name  string   `json:"name"`
	Knobs []string `json:"knobs,omitempty"`
}

// Capabilities is the payload of GET /v1/capabilities: the feature
// roster of this server build, so clients can discover what a config may
// say instead of probing for 400s.
type Capabilities struct {
	// SimilarityBackends lists the accepted config.similarity values and
	// the knobs each backend accepts.
	SimilarityBackends []SimBackendInfo `json:"similarity_backends"`
	// Precisions lists the accepted config.precision values.
	Precisions []string `json:"precisions"`
	// IngestFormats lists the registered dataset upload formats.
	IngestFormats []string `json:"ingest_formats"`
	// Variants lists the pipeline ablations by paper name.
	Variants []string `json:"variants"`
	// Datasets lists the built-in dataset generators.
	Datasets []string `json:"datasets"`
	// MaxNodes is the per-graph admission limit (0 = unlimited).
	MaxNodes int `json:"max_nodes"`
	// MaxSweepConfigs bounds the configs list of one sweep.
	MaxSweepConfigs int `json:"max_sweep_configs"`
	// Refine describes the POST /v1/refine primitive and the refinement
	// knobs the align config accepts.
	Refine RefineCaps `json:"refine"`
}

// RefineCaps is the refinement block of the capabilities payload.
type RefineCaps struct {
	// Knobs lists the refinement knobs accepted both by the align
	// config and by POST /v1/refine.
	Knobs []string `json:"knobs"`
	// DefaultIters is the iteration count /v1/refine runs when the
	// request leaves refine_iters at 0.
	DefaultIters int `json:"default_iters"`
	// MaxIters bounds refine_iters on /v1/refine (the endpoint runs
	// synchronously, so the work per request is capped).
	MaxIters int `json:"max_iters"`
}

// ProgressInfo is the live progress block of a running job, mirrored from
// the pipeline's progress events into GET /v1/jobs/{id}.
type ProgressInfo struct {
	// Stage is the pipeline stage currently running (core.Stage*).
	Stage string `json:"stage"`
	// Done and Total count the stage's completed and planned work units
	// (graphs for the build stages, epochs for training, orbits for
	// fine-tuning).
	Done  int `json:"done"`
	Total int `json:"total"`
	// Config and Configs locate a sweep job within its configuration
	// list (1-based; absent on single-config jobs).
	Config  int `json:"config,omitempty"`
	Configs int `json:"configs,omitempty"`
}

// JobInfo is the job-facing view returned by the submit and poll
// endpoints.
type JobInfo struct {
	ID     string    `json:"id"`
	Status JobStatus `json:"status"`
	Error  string    `json:"error,omitempty"`
	// QueuePosition is the job's 1-based place among still-queued jobs
	// (present only while queued), so pollers can tell "waiting behind
	// N others" from "stuck".
	QueuePosition int `json:"queue_position,omitempty"`
	// Progress is the live pipeline progress of a running job.
	Progress    *ProgressInfo `json:"progress,omitempty"`
	SubmittedAt time.Time     `json:"submitted_at"`
	StartedAt   *time.Time    `json:"started_at,omitempty"`
	FinishedAt  *time.Time    `json:"finished_at,omitempty"`
	// Result carries a finished single-config job's payload.
	Result *AlignResult `json:"result,omitempty"`
	// Sweep carries a finished sweep job's payload.
	Sweep *SweepResult `json:"sweep,omitempty"`
}
