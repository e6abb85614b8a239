package align

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/htc-align/htc/internal/dense"
)

// bruteBestMatching enumerates all injective assignments of rows to
// columns and returns the maximum total score. Exponential; for tiny
// matrices only.
func bruteBestMatching(m *dense.Matrix) float64 {
	cols := make([]int, m.Cols)
	for j := range cols {
		cols[j] = j
	}
	best := math.Inf(-1)
	var rec func(row int, used []bool, score float64, taken int)
	size := m.Rows
	if m.Cols < size {
		size = m.Cols
	}
	rec = func(row int, used []bool, score float64, taken int) {
		if taken == size || row == m.Rows {
			if taken == size && score > best {
				best = score
			}
			return
		}
		// Skip this row (only allowed when rows > cols).
		if m.Rows-row-1 >= size-taken {
			rec(row+1, used, score, taken)
		}
		for j := 0; j < m.Cols; j++ {
			if !used[j] {
				used[j] = true
				rec(row+1, used, score+m.At(row, j), taken+1)
				used[j] = false
			}
		}
	}
	rec(0, make([]bool, m.Cols), 0, 0)
	return best
}

func randomScore(r, c int, rng *rand.Rand) *dense.Matrix {
	m := dense.New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestGreedyMatchPermutation(t *testing.T) {
	// With a dominant diagonal-like structure, greedy must recover it.
	m := dense.FromRows([][]float64{
		{0.1, 0.9, 0.2},
		{0.8, 0.1, 0.3},
		{0.2, 0.3, 0.7},
	})
	match := GreedyMatch(m)
	want := []int{1, 0, 2}
	for i := range want {
		if match[i] != want[i] {
			t.Fatalf("match = %v, want %v", match, want)
		}
	}
}

func TestGreedyMatchInjective(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomScore(1+rng.Intn(8), 1+rng.Intn(8), rng)
		match := GreedyMatch(m)
		seen := map[int]bool{}
		matched := 0
		for _, j := range match {
			if j < 0 {
				continue
			}
			if seen[j] {
				return false
			}
			seen[j] = true
			matched++
		}
		// Greedy must saturate the smaller side.
		size := m.Rows
		if m.Cols < size {
			size = m.Cols
		}
		return matched == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestHungarianMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(6), 1+rng.Intn(6)
		m := randomScore(r, c, rng)
		match := HungarianMatch(m)
		got := matchScore(m, match)
		want := bruteBestMatching(m)
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestHungarianBeatsOrEqualsGreedy(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomScore(2+rng.Intn(10), 2+rng.Intn(10), rng)
		return matchScore(m, HungarianMatch(m))+1e-9 >= matchScore(m, GreedyMatch(m))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestHungarianKnownCase(t *testing.T) {
	// Greedy fails this classic case; Hungarian must not.
	m := dense.FromRows([][]float64{
		{10, 9},
		{9, 1},
	})
	// Greedy takes (0,0)=10 then (1,1)=1 → 11; optimal is 9+9 = 18.
	match := HungarianMatch(m)
	if got := matchScore(m, match); got != 18 {
		t.Fatalf("Hungarian score = %v, want 18 (match %v)", got, match)
	}
}

func TestHungarianRectangular(t *testing.T) {
	// More rows than columns: exactly cols rows get matched.
	m := dense.FromRows([][]float64{
		{5, 0},
		{0, 5},
		{4, 4},
	})
	match := HungarianMatch(m)
	matched := 0
	for _, j := range match {
		if j >= 0 {
			matched++
		}
	}
	if matched != 2 {
		t.Fatalf("matched %d rows, want 2 (match %v)", matched, match)
	}
	if got := matchScore(m, match); got != 10 {
		t.Fatalf("score = %v, want 10", got)
	}
}

func TestHungarianNegativeScores(t *testing.T) {
	m := dense.FromRows([][]float64{
		{-1, -5},
		{-5, -1},
	})
	match := HungarianMatch(m)
	if got := matchScore(m, match); got != -2 {
		t.Fatalf("score = %v, want -2", got)
	}
}

func TestHungarianEmpty(t *testing.T) {
	if out := HungarianMatch(dense.New(0, 3)); len(out) != 0 {
		t.Fatal("empty rows must give empty match")
	}
	out := HungarianMatch(dense.New(2, 0))
	if out[0] != -1 || out[1] != -1 {
		t.Fatal("zero columns must leave rows unmatched")
	}
}

func TestMatchScoreIgnoresUnmatched(t *testing.T) {
	m := dense.FromRows([][]float64{{1, 2}, {3, 4}})
	if got := matchScore(m, []int{-1, 0}); got != 3 {
		t.Fatalf("score = %v, want 3", got)
	}
}

// matchScore sums the matrix entries selected by a matching, the objective
// both matchers maximise.
func matchScore(m *dense.Matrix, match []int) float64 {
	var s float64
	for i, j := range match {
		if j >= 0 {
			s += m.At(i, j)
		}
	}
	return s
}

// matchScoreSim is matchScore over any similarity representation. Matched
// pairs outside a sparse representation contribute nothing (a candidate
// matcher never selects them, but a caller may score a foreign matching).
func matchScoreSim(sim Sim, match []int) float64 {
	var s float64
	for i, j := range match {
		if j < 0 {
			continue
		}
		if v, ok := sim.At(i, j); ok {
			s += v
		}
	}
	return s
}
