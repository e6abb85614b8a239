package server

import (
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"

	"github.com/htc-align/htc/internal/core"
)

// A Counter is a Prometheus counter: a series that only grows.
type Counter struct{ atomic.Int64 }

// A Gauge is a Prometheus gauge: a series that goes up and down.
type Gauge struct{ atomic.Int64 }

// Metrics holds the service's series, exposed in Prometheus text format
// by GET /v1/metrics in declaration order. Each field is a Counter or a
// Gauge and names its series and help text in its tags, so a new series
// is one tagged field plus its increment. All fields are manipulated
// atomically; the zero value is ready to use.
type Metrics struct {
	JobsSubmitted    Counter `metric:"htc_jobs_submitted_total" help:"Alignment jobs accepted into the queue."`
	JobsRejected     Counter `metric:"htc_jobs_rejected_total" help:"Submissions rejected because the queue was full."`
	JobsCompleted    Counter `metric:"htc_jobs_completed_total" help:"Jobs that finished successfully."`
	JobsFailed       Counter `metric:"htc_jobs_failed_total" help:"Jobs that finished with an error."`
	JobsCancelled    Counter `metric:"htc_jobs_cancelled_total" help:"Jobs cancelled before completion."`
	CacheHits        Counter `metric:"htc_cache_hits_total" help:"Submissions served from the result cache."`
	CacheMisses      Counter `metric:"htc_cache_misses_total" help:"Submissions that required a pipeline run."`
	PreparedHits     Counter `metric:"htc_prepared_hits_total" help:"Jobs that reused cached prepared artifacts for their graph pair."`
	PreparedMisses   Counter `metric:"htc_prepared_misses_total" help:"Jobs that had to prepare their graph pair from scratch."`
	SweepConfigs     Counter `metric:"htc_sweep_configs_total" help:"Configurations executed on behalf of sweep jobs."`
	DatasetUploads   Counter `metric:"htc_dataset_uploads_total" help:"Dataset uploads admitted via PUT /v1/datasets."`
	DatasetEvictions Counter `metric:"htc_dataset_evictions_total" help:"Uploaded datasets evicted from the LRU store."`
	DatasetAlignRuns Counter `metric:"htc_dataset_align_runs_total" help:"Pipeline runs resolved from an uploaded dataset."`
	// The similarity series count runs under the backend an auto config
	// resolved to, so they show the mix traffic actually exercises.
	SimDenseRuns     Counter `metric:"htc_sim_dense_runs_total" help:"Pipeline runs that used the dense similarity backend."`
	SimTopKRuns      Counter `metric:"htc_sim_topk_runs_total" help:"Pipeline runs that used the top-k similarity backend."`
	SimAnnRuns       Counter `metric:"htc_sim_ann_runs_total" help:"Pipeline runs that used the approximate (LSH) similarity backend."`
	SimAnnExactRuns  Counter `metric:"htc_sim_ann_exact_runs_total" help:"ANN runs whose probe budget covered every bucket (exactness escape hatch)."`
	SimAnnPoolRows   Counter `metric:"htc_sim_ann_pool_rows" help:"Candidate rows gathered for exact re-ranking across ANN runs."`
	SimF32Runs       Counter `metric:"htc_sim_f32_runs_total" help:"Pipeline runs whose fine-tune similarity ran on the float32 tier."`
	RefineRuns       Counter `metric:"htc_refine_runs_total" help:"POST /v1/refine executions (cache hits excluded)."`
	RefineIterations Counter `metric:"htc_refine_iters_total" help:"RefiNA iterations run on behalf of /v1/refine requests."`
	RefineCacheHits  Counter `metric:"htc_refine_cache_hits_total" help:"Refine requests served from the refine result cache."`
	RefinedAlignRuns Counter `metric:"htc_refined_align_runs_total" help:"Pipeline runs whose config enabled stage-6 refinement."`
	JobsRunning      Gauge   `metric:"htc_jobs_running" help:"Jobs currently holding a worker."`
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

// writePrometheus renders the series in Prometheus exposition format,
// then the gauges extras holds, which the caller owns (queue depth,
// uptime), sorted by name.
func (m *Metrics) writePrometheus(w io.Writer, extras map[string]float64) {
	v := reflect.ValueOf(m).Elem()
	t := v.Type()
	for i := range t.NumField() {
		f := t.Field(i)
		// The field's type, Counter or Gauge, names its Prometheus TYPE.
		kind := strings.ToLower(f.Type.Name())
		value := v.Field(i).Field(0).Addr().Interface().(*atomic.Int64).Load()
		fmt.Fprintf(w, "# HELP %[1]s %[2]s\n# TYPE %[1]s %[3]s\n%[1]s %[4]d\n", f.Tag.Get("metric"), f.Tag.Get("help"), kind, value)
	}
	names := make([]string, 0, len(extras))
	for name := range extras {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", name, name, extras[name])
	}
}
