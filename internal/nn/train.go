package nn

import (
	"context"
	"fmt"
	"math"

	"github.com/htc-align/htc/internal/dense"
	"github.com/htc-align/htc/internal/par"
	"github.com/htc-align/htc/internal/sparse"
)

// GraphData bundles one graph's training inputs: the per-orbit normalised
// Laplacians and the node feature matrix.
type GraphData struct {
	Laps []*sparse.CSR
	X    *dense.Matrix
}

// TrainConfig controls the multi-orbit-aware training loop.
type TrainConfig struct {
	// Epochs is the number of full passes over all orbits of both graphs.
	Epochs int
	// LR is the Adam learning rate.
	LR float64
	// Patience, when positive, stops training early once the loss has
	// not improved for that many consecutive epochs — useful on easy
	// instances where the paper's fixed epoch budget overshoots.
	Patience int
	// Workers bounds the goroutines used per epoch (≤ 0 = GOMAXPROCS).
	// The 2·K forward/backward passes of one epoch are independent — the
	// encoder weights are read-only until the shared Adam step — so they
	// fan out across workers; gradients land in per-pass buffers that are
	// reduced in a fixed order, which keeps the loss history and the
	// learned weights bit-identical for every worker count.
	Workers int
	// OnEpoch, when non-nil, observes the summed reconstruction loss
	// after each epoch (used for logging and convergence tests).
	OnEpoch func(epoch int, loss float64)
	// Ctx, when non-nil, is checked between epochs; once cancelled,
	// Train stops and returns the history accumulated so far. Long-lived
	// callers (the alignment server) use it to reclaim workers from
	// abandoned jobs.
	Ctx context.Context
}

// trainTask is one (orbit, graph) reconstruction pass of an epoch. Tasks
// are ordered orbit-major with the source graph first, matching the
// serial loop of Algorithm 1, so reducing per-task results in task order
// reproduces the serial arithmetic exactly.
type trainTask struct {
	lap *sparse.CSR
	x   *dense.Matrix
	// side is 0 for the source graph, 1 for the target: workers keep one
	// workspace per side so buffer shapes stay stable across their tasks.
	side int
	// grads accumulates this task's weight gradient within an epoch.
	grads []*dense.Matrix
}

// Train runs Algorithm 1 (multi-orbit-aware embedding): for every epoch it
// accumulates the reconstruction gradient of every orbit of both graphs
// into one shared update, so the encoder is forced to capture all orders
// of topological consistency at once. It returns the per-epoch loss Γ.
func Train(enc *Encoder, src, tgt *GraphData, cfg TrainConfig) []float64 {
	if len(src.Laps) != len(tgt.Laps) {
		panic(fmt.Sprintf("nn: source has %d orbits, target %d", len(src.Laps), len(tgt.Laps)))
	}
	if cfg.Epochs <= 0 {
		return nil
	}

	tasks := make([]*trainTask, 0, 2*len(src.Laps))
	for k := range src.Laps {
		for side, gd := range [2]*GraphData{src, tgt} {
			tasks = append(tasks, &trainTask{
				lap: gd.Laps[k], x: gd.X, side: side,
				grads: enc.ZeroGrads(),
			})
		}
	}

	// Divide the budget: fan tasks across up to `outer` goroutines; when
	// fewer tasks than workers exist (the low-order variants), the spare
	// budget parallelises the dense kernels inside each pass instead.
	// Zero orbits degenerate to epochs of zero loss and zero gradient,
	// matching the old serial loop.
	outer, inner := par.SplitOuterInner(cfg.Workers, len(tasks))

	// One workspace per (worker, graph side): a worker's stride-W task
	// sequence alternates sides, and per-side buffers keep every reuse a
	// shape hit.
	workspaces := make([][2]workspace, outer)

	opt := NewAdam(enc.W, cfg.LR)
	grads := enc.ZeroGrads()
	losses := make([]float64, len(tasks))
	history := make([]float64, 0, cfg.Epochs)
	best := math.Inf(1)
	sinceImprovement := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
			return history
		}
		par.Sharded(outer, len(tasks), func(worker, t int) {
			task := tasks[t]
			ws := &workspaces[worker][task.side]
			for _, g := range task.grads {
				g.Zero()
			}
			enc.ForwardReuse(&ws.cache, task.lap, task.x, inner)
			loss, dH := reconLossReuse(task.lap, ws.cache.Output(), ws, inner)
			enc.backwardReuse(&ws.cache, dH, task.grads, ws, inner)
			losses[t] = loss
		})

		// Reduce in task order: the additions happen in exactly the
		// sequence the serial loop used, so the result is independent of
		// how tasks were scheduled.
		for _, g := range grads {
			g.Zero()
		}
		var total float64
		for t, task := range tasks {
			total += losses[t]
			for l, g := range grads {
				g.Add(task.grads[l])
			}
		}
		opt.Step(grads)
		history = append(history, total)
		if cfg.OnEpoch != nil {
			cfg.OnEpoch(epoch, total)
		}
		if cfg.Patience > 0 {
			if total < best*(1-1e-9) {
				best = total
				sinceImprovement = 0
			} else if sinceImprovement++; sinceImprovement >= cfg.Patience {
				break
			}
		}
	}
	return history
}
