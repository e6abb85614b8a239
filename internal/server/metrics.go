package server

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"

	"github.com/htc-align/htc/internal/core"
)

// Metrics holds the service counters, exposed in Prometheus text format
// by GET /v1/metrics. All fields are manipulated atomically; the zero
// value is ready to use.
type Metrics struct {
	JobsSubmitted atomic.Int64
	JobsRejected  atomic.Int64
	JobsCompleted atomic.Int64
	JobsFailed    atomic.Int64
	JobsCancelled atomic.Int64
	JobsRunning   atomic.Int64 // gauge: jobs currently holding a worker
	CacheHits     atomic.Int64
	CacheMisses   atomic.Int64
	// PreparedHits/Misses count artifact-cache lookups: a hit means a job
	// skipped the orbit-counting and Laplacian stages entirely because an
	// earlier job on the same graph pair already built them.
	PreparedHits   atomic.Int64
	PreparedMisses atomic.Int64
	// SweepConfigs counts individual configurations executed by sweep
	// jobs (cache-served entries included).
	SweepConfigs atomic.Int64
	// DatasetUploads counts PUT /v1/datasets admissions (replacements
	// included); DatasetEvictions counts LRU evictions from the store;
	// DatasetAlignRuns counts pipeline runs resolved from an uploaded
	// dataset.
	DatasetUploads   atomic.Int64
	DatasetEvictions atomic.Int64
	DatasetAlignRuns atomic.Int64
	// SimDenseRuns/SimTopKRuns/SimAnnRuns count completed pipeline runs
	// per similarity backend (auto configs count under the backend they
	// resolved to), so operators can see the backend mix their traffic
	// actually exercises. SimAnnExactRuns additionally counts the ann
	// runs whose probe budget covered every bucket — the exactness
	// escape hatch, where "approximate" traffic was in fact exact.
	SimDenseRuns    atomic.Int64
	SimTopKRuns     atomic.Int64
	SimAnnRuns      atomic.Int64
	SimAnnExactRuns atomic.Int64
	// SimAnnPoolRows accumulates the candidate rows ANN runs gathered for
	// exact re-ranking — the work-per-query series; divided by queries it
	// exposes skew (a balanced hash keeps the mean pool near k, hot
	// buckets inflate it).
	SimAnnPoolRows atomic.Int64
	// SimF32Runs counts completed pipeline runs whose fine-tune similarity
	// ran on the float32 compute tier (explicit precision=f32 and auto
	// configs that resolved there alike), so operators can see how much
	// traffic actually exercises the half-width path.
	SimF32Runs atomic.Int64
	// RefineRuns counts POST /v1/refine executions (cache hits excluded);
	// RefineIterations accumulates the RefiNA iterations they ran;
	// RefineCacheHits counts refine requests served from the refine
	// cache; RefinedAlignRuns counts pipeline runs whose config enabled
	// the stage-6 refinement.
	RefineRuns       atomic.Int64
	RefineIterations atomic.Int64
	RefineCacheHits  atomic.Int64
	RefinedAlignRuns atomic.Int64
}

// recordBackend tallies one completed pipeline run under its resolved
// similarity backend.
func (m *Metrics) recordBackend(res *core.Result) {
	switch res.SimBackend {
	case "ann":
		m.SimAnnRuns.Add(1)
		if res.AnnBits > 0 && res.AnnProbes >= 1<<res.AnnBits {
			m.SimAnnExactRuns.Add(1)
		}
		if res.Ann != nil {
			m.SimAnnPoolRows.Add(res.Ann.PoolRows)
		}
	case "topk":
		m.SimTopKRuns.Add(1)
	default:
		m.SimDenseRuns.Add(1)
	}
	if res.Precision == "f32" {
		m.SimF32Runs.Add(1)
	}
	if len(res.RefineMNC) > 0 {
		m.RefinedAlignRuns.Add(1)
	}
}

// writePrometheus renders the counters in Prometheus exposition format.
// extras lets the caller append gauges it owns (queue depth, uptime).
func (m *Metrics) writePrometheus(w io.Writer, extras map[string]float64) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("htc_jobs_submitted_total", "Alignment jobs accepted into the queue.", m.JobsSubmitted.Load())
	counter("htc_jobs_rejected_total", "Submissions rejected because the queue was full.", m.JobsRejected.Load())
	counter("htc_jobs_completed_total", "Jobs that finished successfully.", m.JobsCompleted.Load())
	counter("htc_jobs_failed_total", "Jobs that finished with an error.", m.JobsFailed.Load())
	counter("htc_jobs_cancelled_total", "Jobs cancelled before completion.", m.JobsCancelled.Load())
	counter("htc_cache_hits_total", "Submissions served from the result cache.", m.CacheHits.Load())
	counter("htc_cache_misses_total", "Submissions that required a pipeline run.", m.CacheMisses.Load())
	counter("htc_prepared_hits_total", "Jobs that reused cached prepared artifacts for their graph pair.", m.PreparedHits.Load())
	counter("htc_prepared_misses_total", "Jobs that had to prepare their graph pair from scratch.", m.PreparedMisses.Load())
	counter("htc_sweep_configs_total", "Configurations executed on behalf of sweep jobs.", m.SweepConfigs.Load())
	counter("htc_dataset_uploads_total", "Dataset uploads admitted via PUT /v1/datasets.", m.DatasetUploads.Load())
	counter("htc_dataset_evictions_total", "Uploaded datasets evicted from the LRU store.", m.DatasetEvictions.Load())
	counter("htc_dataset_align_runs_total", "Pipeline runs resolved from an uploaded dataset.", m.DatasetAlignRuns.Load())
	counter("htc_sim_dense_runs_total", "Pipeline runs that used the dense similarity backend.", m.SimDenseRuns.Load())
	counter("htc_sim_topk_runs_total", "Pipeline runs that used the top-k similarity backend.", m.SimTopKRuns.Load())
	counter("htc_sim_ann_runs_total", "Pipeline runs that used the approximate (LSH) similarity backend.", m.SimAnnRuns.Load())
	counter("htc_sim_ann_exact_runs_total", "ANN runs whose probe budget covered every bucket (exactness escape hatch).", m.SimAnnExactRuns.Load())
	counter("htc_sim_ann_pool_rows", "Candidate rows gathered for exact re-ranking across ANN runs.", m.SimAnnPoolRows.Load())
	counter("htc_sim_f32_runs_total", "Pipeline runs whose fine-tune similarity ran on the float32 tier.", m.SimF32Runs.Load())
	counter("htc_refine_runs_total", "POST /v1/refine executions (cache hits excluded).", m.RefineRuns.Load())
	counter("htc_refine_iters_total", "RefiNA iterations run on behalf of /v1/refine requests.", m.RefineIterations.Load())
	counter("htc_refine_cache_hits_total", "Refine requests served from the refine result cache.", m.RefineCacheHits.Load())
	counter("htc_refined_align_runs_total", "Pipeline runs whose config enabled stage-6 refinement.", m.RefinedAlignRuns.Load())
	fmt.Fprintf(w, "# HELP htc_jobs_running Jobs currently holding a worker.\n# TYPE htc_jobs_running gauge\nhtc_jobs_running %d\n", m.JobsRunning.Load())
	names := make([]string, 0, len(extras))
	for name := range extras {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", name, name, extras[name])
	}
}
