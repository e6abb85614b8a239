package align

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/htc-align/htc/internal/dense"
)

// exactCandidates runs the top-k backend's candidate scan once: a
// zero-bits index, every target row scored against every source row.
func exactCandidates(hs, ht *dense.Matrix, k int) *Candidates {
	return (&annScratch{}).topK(hs, ht, k, 0)
}

func randomEmbeddings(n, d int, rng *rand.Rand) *dense.Matrix {
	m := dense.New(n, d)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestTopKCandidatesMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ns, nt, d := 2+rng.Intn(12), 2+rng.Intn(12), 2+rng.Intn(6)
		hs := randomEmbeddings(ns, d, rng)
		ht := randomEmbeddings(nt, d, rng)
		k := 1 + rng.Intn(nt)
		cands := exactCandidates(hs, ht, k)
		corr := new(simScratch).corrInto(hs, ht, 0)
		for i := 0; i < ns; i++ {
			if len(cands.Idx[i]) != k {
				return false
			}
			// Descending order and value agreement with the dense matrix.
			prev := math.Inf(1)
			for c, j := range cands.Idx[i] {
				got := cands.Score[i][c]
				if math.Abs(got-corr.At(i, int(j))) > 1e-9 {
					return false
				}
				if got > prev+1e-12 {
					return false
				}
				prev = got
			}
			// The first candidate must be the dense argmax.
			row := corr.Row(i)
			best := 0
			for j, v := range row {
				if v > row[best] {
					best = j
				}
			}
			if math.Abs(corr.At(i, best)-cands.Score[i][0]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestTopKCandidatesBlockBoundary(t *testing.T) {
	// More rows than one block (256) to exercise the blocked path.
	rng := rand.New(rand.NewSource(7))
	hs := randomEmbeddings(300, 4, rng)
	ht := randomEmbeddings(40, 4, rng)
	cands := exactCandidates(hs, ht, 3)
	corr := new(simScratch).corrInto(hs, ht, 0)
	for _, i := range []int{0, 255, 256, 299} {
		row := corr.Row(i)
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		if int(cands.Idx[i][0]) != best {
			t.Fatalf("row %d: blocked top-1 %d != dense argmax %d", i, cands.Idx[i][0], best)
		}
	}
}

func TestTopKCandidatesClampsK(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cands := exactCandidates(randomEmbeddings(5, 3, rng), randomEmbeddings(4, 3, rng), 99)
	if cands.K != 4 || len(cands.Idx[0]) != 4 {
		t.Fatalf("k not clamped: %d", cands.K)
	}
}

func TestTopKCandidatesBadKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	exactCandidates(dense.New(2, 2), dense.New(2, 2), 0)
}

// TestTrustedPairsTopKFullEqualsDense: with k = n and the same m, the
// sparse trusted pairs must exactly reproduce the dense
// TrustedPairs(LISI(corr, m)).
func TestTrustedPairsTopKFullEqualsDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ns, nt, d := 2+rng.Intn(10), 2+rng.Intn(10), 3+rng.Intn(4)
		hs := randomEmbeddings(ns, d, rng)
		ht := randomEmbeddings(nt, d, rng)
		m := 1 + rng.Intn(4)

		forward := exactCandidates(hs, ht, nt)
		backward := exactCandidates(ht, hs, ns)
		sparsePairs := trustedPairsCands(forward, backward, topMeansInto(nil, forward, m), topMeansInto(nil, backward, m))

		densePairs := TrustedPairs(new(simScratch).lisiInto(new(simScratch).corrInto(hs, ht, 0), m, 0))
		if len(sparsePairs) != len(densePairs) {
			return false
		}
		for i := range densePairs {
			if sparsePairs[i] != densePairs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSparseLISIEmptyCandidates(t *testing.T) {
	c := &Candidates{K: 1, Idx: [][]int32{nil}, Score: [][]float64{nil}}
	d := topMeansInto(nil, c, 3)
	best := sparseBest(c, d, d, false)
	if best[0] != -1 {
		t.Fatalf("empty candidate list must map to -1, got %d", best[0])
	}
}

func BenchmarkTopKCandidates(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	hs := randomEmbeddings(1000, 32, rng)
	ht := randomEmbeddings(1000, 32, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exactCandidates(hs, ht, 20)
	}
}
