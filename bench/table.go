package main

// metricDecl declares one metric as BENCHMARK.json lists it. Bound is
// set on end-to-end metrics only: the share of the parent's median by
// which the metric may worsen before a change counts as a regression.
type metricDecl struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func bound(b float64) *float64 { return &b }

// endToEndMetrics are what a user of the aligner sees; every workload
// reports each of them from its untraced run. A request is one
// alignment (ingest + align + match) on the library workloads and one
// HTTP request on serve-mixed, where align_s times the fresh requests,
// the ones that align a new pair. Times and rates are scaled to the
// reference host speed (hostspeed.go). The bounds were set from the
// spreads in baseline/ (README.md, "Baseline and spread").
var endToEndMetrics = []metricDecl{
	{"align_s", "s", "lower", bound(0.25)},
	{"alloc_mb", "MB", "lower", bound(0.10)},
	{"hits1", "ratio", "higher", bound(0.03)},
	{"mrr", "ratio", "higher", bound(0.03)},
	{"req_p50_ms", "ms", "lower", bound(0.25)},
	{"req_per_s", "1/s", "higher", bound(0.25)},
	{"setup_s", "s", "lower", bound(0.25)},
}

// candidateMetrics were proposed as end-to-end metrics and dropped
// because they do not repeat between runs of the same code (README.md
// gives the measured reason for each); align_wall_s is align_s before
// it is scaled to the reference speed (hostspeed.go). The untraced run
// still prints them on standard error, prefixed "candidate", so
// spread.py keeps measuring them.
var candidateMetrics = []metricDecl{
	{"align_wall_s", "s", "lower", nil},
	{"peak_rss_mb", "MB", "lower", nil},
	{"req_p90_ms", "ms", "lower", nil},
}

// perLayerMetrics come from the traced run. A *_share metric is the
// layer's self time as a share of the summed request time, so the
// shares of the layers inside a request add up to 1; a layer a
// workload does not exercise reports 0. Layer times are shares rather
// than seconds for that reason: every workload reports every metric,
// and a time that reads 0 on every run of a workload is not a
// measurement. *_alloc_mb metrics are MB allocated per request; counts
// are per request unless named as a ratio.
var perLayerMetrics = []metricDecl{
	{"align.finetune_alloc_mb", "MB", "lower", nil},
	{"align.finetune_iters", "count", "lower", nil},
	{"align.finetune_share", "ratio", "lower", nil},
	{"align.integrate_share", "ratio", "lower", nil},
	{"align.match_share", "ratio", "lower", nil},
	{"align.trusted_pairs", "count", "higher", nil},
	{"ann.pool_rows_mean", "count", "lower", nil},
	{"ann.queries", "count", "lower", nil},
	{"ann.refit_reuse", "ratio", "higher", nil},
	{"ann.rows_hashed", "count", "lower", nil},
	{"core.self_share", "ratio", "lower", nil},
	{"go.gc_cycles", "count", "lower", nil},
	{"go.gc_pause_ms", "ms", "lower", nil},
	{"go.peak_rss_mb", "MB", "lower", nil},
	{"gom.alloc_mb", "MB", "lower", nil},
	{"gom.build_share", "ratio", "lower", nil},
	{"ingest.alloc_mb", "MB", "lower", nil},
	{"ingest.load_share", "ratio", "lower", nil},
	{"metrics.eval_share", "ratio", "lower", nil},
	{"nn.alloc_mb", "MB", "lower", nil},
	{"nn.epoch_ms", "ms", "lower", nil},
	{"nn.epochs", "count", "lower", nil},
	{"nn.train_share", "ratio", "lower", nil},
	{"orbit.count_share", "ratio", "lower", nil},
	{"refine.alloc_mb", "MB", "lower", nil},
	{"refine.iters", "count", "lower", nil},
	{"refine.mnc_after", "ratio", "higher", nil},
	{"refine.mnc_before", "ratio", "higher", nil},
	{"refine.refine_share", "ratio", "lower", nil},
	{"server.http_429", "count", "lower", nil},
	{"server.http_5xx", "count", "lower", nil},
	{"server.overhead_share", "ratio", "lower", nil},
	{"server.polls_per_req", "count", "lower", nil},
	{"server.prepared_hit_ratio", "ratio", "higher", nil},
	{"server.queue_share", "ratio", "lower", nil},
	{"server.result_hit_ratio", "ratio", "higher", nil},
	{"server.run_share", "ratio", "lower", nil},
	{"trace.op_ms", "ms", "lower", nil},
}
