// Package metricdiscipline exercises the observability contract: every
// metric-tagged collector field must be incremented and name a series
// with the htc_ prefix.
package metricdiscipline

import "sync/atomic"

type Counter struct{ atomic.Int64 }

type Gauge struct{ atomic.Int64 }

// Metrics is the fixture's collector roster.
type Metrics struct {
	Aligns   Counter `metric:"htc_aligns_total" help:"Alignments run."`
	Flatline Counter `metric:"htc_flatline_total" help:"Never incremented."` // want `collector Flatline is never incremented`
	Renamed  Counter `metric:"aligns_renamed_total" help:"No prefix."`       // want `collector Renamed is exported as "aligns_renamed_total": metric names must carry the htc_ prefix`
	// Refines and RefineIters are the clean refine-counter pair.
	Refines     Counter `metric:"htc_refine_runs_total" help:"Refine runs."`
	RefineIters Counter `metric:"htc_refine_iters_total" help:"Refine iterations."`
	// Running is a gauge: a Store counts as its increment.
	Running Gauge `metric:"htc_running" help:"Jobs running."`

	// seq carries no metric tag: concurrency state, not a collector.
	seq atomic.Int64
}

func (m *Metrics) observe() {
	m.Aligns.Add(1)
	m.Renamed.Add(1)
	m.Refines.Add(1)
	m.RefineIters.Add(5)
	m.Running.Store(2)
	m.seq.Add(1)
}
