package topk

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// pair is one (index, score) pair of the reference selection.
type pair struct {
	id    int32
	score float64
}

// reference selects the k best entries by a full sort on (score desc,
// index asc), the rule Select must reproduce without sorting.
func reference[F float32 | float64](ids []int32, scores []F, k int) []pair {
	all := make([]pair, len(scores))
	for p, v := range scores {
		all[p] = pair{int32(p), float64(v)}
		if ids != nil {
			all[p].id = ids[p]
		}
	}
	slices.SortFunc(all, func(a, b pair) int {
		if c := cmp.Compare(b.score, a.score); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	return all[:k]
}

// checkSelect runs Select through s and compares it with the reference
// for every k the tie rule can matter at.
func checkSelect[F float32 | float64](t *testing.T, s *Selector, ids []int32, scores []F) {
	t.Helper()
	n := len(scores)
	for _, k := range []int{0, 1, n - 1, n} {
		outIdx := make([]int32, k)
		outScore := make([]float64, k)
		Select(s, outIdx, outScore, ids, scores)
		for p, want := range reference(ids, scores, k) {
			if outIdx[p] != want.id || outScore[p] != want.score {
				t.Fatalf("n=%d k=%d ids=%v: slot %d = (%d, %v), want (%d, %v)",
					n, k, ids != nil, p, outIdx[p], outScore[p], want.id, want.score)
			}
		}
	}
}

// TestSelectMatchesSortOnTies pins the tie rule itself: on scores drawn
// from a handful of distinct values, so that most entries tie, Select
// must return exactly the first k entries of a full (score desc, index
// asc) sort, at both precisions, with positional and explicit indexes
// (the explicit ones shuffled, so position and index disagree). One
// Selector serves every call, as a worker's does.
func TestSelectMatchesSortOnTies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	levels := []float64{-0.5, 0, 0.25, 0.25 + 1e-9, 1}
	var s Selector
	for _, n := range []int{1, 2, 3, 8, 33, 100} {
		for trial := 0; trial < 5; trial++ {
			s64 := make([]float64, n)
			s32 := make([]float32, n)
			for p := range s64 {
				s64[p] = levels[rng.Intn(len(levels))]
				s32[p] = float32(s64[p])
			}
			ids := make([]int32, n)
			for p, v := range rng.Perm(3 * n)[:n] {
				ids[p] = int32(v)
			}
			checkSelect(t, &s, nil, s64)
			checkSelect(t, &s, ids, s64)
			checkSelect(t, &s, nil, s32)
			checkSelect(t, &s, ids, s32)
		}
	}
}
