package align

import (
	"math"
	"math/rand"
	"testing"

	"github.com/htc-align/htc/internal/dense"
	"github.com/htc-align/htc/internal/graph"
	"github.com/htc-align/htc/internal/nn"
	"github.com/htc-align/htc/internal/sparse"
)

// graphFixture returns the symmetric normalised adjacency of a sparse
// random graph — the Laplacian shape FineTune consumes.
func graphFixture(n int, rng *rand.Rand) *sparse.CSR {
	g := graph.ErdosRenyi(n, 0.03, rng)
	inv := make([]float64, n)
	for i, d := range g.DegreeVector() {
		if d > 0 {
			inv[i] = 1 / math.Sqrt(d)
		}
	}
	return g.Adjacency().DiagScale(inv, inv)
}

func encoderFixture(d int, rng *rand.Rand) *nn.Encoder {
	return nn.NewEncoder([]int{d, 16, 8}, []nn.Activation{nn.Tanh{}, nn.Tanh{}}, rng)
}

func benchEmbeddings(n, d int, seed int64) *dense.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := dense.New(n, d)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func BenchmarkCorr1000(b *testing.B) {
	hs := benchEmbeddings(1000, 64, 1)
	ht := benchEmbeddings(1000, 64, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		new(simScratch).corrInto(hs, ht, 0)
	}
}

func BenchmarkLISI1000(b *testing.B) {
	corr := new(simScratch).corrInto(benchEmbeddings(1000, 64, 3), benchEmbeddings(1000, 64, 4), 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		new(simScratch).lisiInto(corr, 20, 0)
	}
}

func BenchmarkTrustedPairs1000(b *testing.B) {
	m := new(simScratch).lisiInto(new(simScratch).corrInto(benchEmbeddings(1000, 64, 5), benchEmbeddings(1000, 64, 6), 0), 20, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TrustedPairs(m)
	}
}

func BenchmarkHubnessDegrees1000(b *testing.B) {
	corr := new(simScratch).corrInto(benchEmbeddings(1000, 64, 9), benchEmbeddings(1000, 64, 10), 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		new(simScratch).hubness(corr, 20, 0)
	}
}

// BenchmarkFineTuneWorkers measures one orbit's full Algorithm 2 loop —
// embed, similarity, LISI, trusted pairs, reinforce, repeat — under an
// explicit worker budget, with its scratch buffers reused across
// iterations.
func BenchmarkFineTuneWorkers(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	n := 400
	g := graphFixture(n, rng)
	x := benchEmbeddings(n, 6, 21)
	enc := encoderFixture(6, rng)
	for _, w := range []struct {
		label   string
		workers int
	}{{"1", 1}, {"max", 0}} {
		b.Run("workers="+w.label, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				FineTune(enc, g, g, x, x, FineTuneConfig{M: 10, MaxIters: 8, Workers: w.workers})
			}
		})
	}
}

func BenchmarkHungarian200(b *testing.B) {
	m := new(simScratch).corrInto(benchEmbeddings(200, 32, 7), benchEmbeddings(200, 32, 8), 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HungarianMatch(m)
	}
}
