package nn

import (
	"math/rand"
	"testing"

	"github.com/htc-align/htc/internal/dense"
	"github.com/htc-align/htc/internal/graph"
	"github.com/htc-align/htc/internal/sparse"
)

// benchGraphData builds one graph's training inputs with k Laplacian-like
// aggregation matrices.
func benchGraphData(n, k, d int, seed int64) *GraphData {
	rng := rand.New(rand.NewSource(seed))
	g := graph.ErdosRenyi(n, 0.05, rng)
	laps := make([]*sparse.CSR, k)
	scale := make([]float64, n)
	for o := range laps {
		for i := range scale {
			scale[i] = 1 / float64(o+2)
		}
		laps[o] = g.Adjacency().DiagScale(scale, scale)
	}
	x := dense.New(n, d)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return &GraphData{Laps: laps, X: x}
}

// BenchmarkTrainWorkers measures the stage-3 epoch loop: 2·K independent
// forward/backward passes per epoch fanned across the worker budget, with
// per-task gradient buffers and per-worker reusable workspaces. The
// paper-movie case trains at the shapes of the benchmark's paper-movie
// workload (100- and 95-node graphs, 13 orbit Laplacians, 14→128→64), where
// the dense and sparse product kernels take nearly all of the time.
func BenchmarkTrainWorkers(b *testing.B) {
	for _, c := range []struct {
		name    string
		n, m, k int // source nodes, target nodes, Laplacians per graph
		dims    []int
		workers int
	}{
		{"workers=1", 300, 280, 8, []int{6, 32, 16}, 1},
		{"workers=max", 300, 280, 8, []int{6, 32, 16}, 0},
		{"paper-movie/workers=1", 100, 95, 13, []int{14, 128, 64}, 1},
	} {
		src := benchGraphData(c.n, c.k, c.dims[0], 1)
		tgt := benchGraphData(c.m, c.k, c.dims[0], 2)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				enc := NewEncoder(c.dims, []Activation{Tanh{}, Tanh{}}, rand.New(rand.NewSource(3)))
				Train(enc, src, tgt, TrainConfig{Epochs: 10, LR: 0.01, Workers: c.workers})
			}
		})
	}
}
