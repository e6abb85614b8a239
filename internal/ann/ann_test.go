package ann

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/htc-align/htc/internal/dense"
)

// randRows builds an n×d matrix of unit-normalised gaussian rows.
func randRows(n, d int, seed int64) *dense.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := dense.New(n, d)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	m.NormalizeRows()
	return m
}

// bruteTopK is the reference: scores every row sequentially and sorts
// by (score desc, id asc).
func bruteTopK(queries, data *dense.Matrix, k int) *Result {
	if k > data.Rows {
		k = data.Rows
	}
	out := &Result{K: k, Idx: make([][]int32, queries.Rows), Score: make([][]float64, queries.Rows)}
	for i := 0; i < queries.Rows; i++ {
		q := queries.Row(i)
		type cand struct {
			id    int32
			score float64
		}
		all := make([]cand, data.Rows)
		for j := range all {
			var s float64
			for l, v := range q {
				s += v * data.Row(j)[l]
			}
			all[j] = cand{int32(j), s}
		}
		sort.Slice(all, func(a, b int) bool {
			if all[a].score != all[b].score {
				return all[a].score > all[b].score
			}
			return all[a].id < all[b].id
		})
		out.Idx[i] = make([]int32, k)
		out.Score[i] = make([]float64, k)
		for p := 0; p < k; p++ {
			out.Idx[i][p] = all[p].id
			out.Score[i][p] = all[p].score
		}
	}
	return out
}

// TestExactPathMatchesBruteForce: a full-probe index (the exactness
// escape hatch) reproduces the brute-force ranking bit for bit.
func TestExactPathMatchesBruteForce(t *testing.T) {
	data := randRows(90, 6, 1)
	queries := randRows(40, 6, 2)
	ix := New(Params{Bits: 4, Probes: 16, Seed: 7})
	if !ix.Params().Exact() {
		t.Fatal("probes = 2^bits should select the exact path")
	}
	ix.Fit(data, 1)
	got := ix.TopK(queries, 5, 1)
	want := bruteTopK(queries, data, 5)
	if !reflect.DeepEqual(got.Idx, want.Idx) || !reflect.DeepEqual(got.Score, want.Score) {
		t.Fatalf("exact index deviates from brute force\ngot  %v\nwant %v", got.Idx[:3], want.Idx[:3])
	}
}

// TestHashedFullGatherMatchesBruteForce: with k = n the hashed path must
// keep probing until the pool covers every row, so the multi-probe
// enumeration exercises every bucket and the output equals brute force —
// a structural test of the CSR buckets and the probe sequence.
func TestHashedFullGatherMatchesBruteForce(t *testing.T) {
	data := randRows(120, 5, 3)
	queries := randRows(30, 5, 4)
	ix := New(Params{Bits: 5, Probes: 1, Seed: 9})
	if ix.Params().Exact() {
		t.Fatal("1 probe of 32 buckets must be approximate")
	}
	ix.Fit(data, 1)
	got := ix.TopK(queries, data.Rows, 1)
	want := bruteTopK(queries, data, data.Rows)
	if !reflect.DeepEqual(got.Idx, want.Idx) || !reflect.DeepEqual(got.Score, want.Score) {
		t.Fatal("k = n forces a full gather; result must equal brute force")
	}
}

// TestDeterministicAcrossWorkers: worker count is a pure perf knob, on a
// single fit and on a loop re-fitting new data into one index (the
// fine-tuning pattern, every later fit on the geometry frozen at the
// first).
func TestDeterministicAcrossWorkers(t *testing.T) {
	single := func(workers int) []*Result {
		ix := New(Params{Bits: 6, Probes: 12, Seed: 11})
		ix.Fit(randRows(400, 8, 5), workers)
		return []*Result{ix.TopK(randRows(333, 8, 6), 10, workers)}
	}
	refit := func(workers int) []*Result {
		ix := New(Params{Bits: 5, Probes: 8, Seed: 13})
		var out []*Result
		for round := int64(0); round < 3; round++ {
			ix.Fit(randRows(150, 7, 20+round), workers)
			out = append(out, ix.TopK(randRows(60, 7, 30+round), 6, workers))
		}
		return out
	}
	for i, run := range []func(int) []*Result{single, refit} {
		base := run(1)
		for _, w := range []int{2, 3, 8} {
			if got := run(w); !reflect.DeepEqual(base, got) {
				t.Fatalf("input %d: workers=%d changed the result", i, w)
			}
		}
	}
}

// TestRefitReusesIndex: an index re-fitted round after round keeps no
// state from the rounds in between — each later fit recodes every row on
// the geometry frozen at the first fit, so it equals a replay that fits
// the first round's data and then this round's data into a fresh index.
func TestRefitReusesIndex(t *testing.T) {
	ix := New(Params{Bits: 5, Probes: 8, Seed: 13})
	first := randRows(150, 7, 20)
	for round := int64(0); round < 3; round++ {
		data := randRows(150, 7, 20+round)
		queries := randRows(60, 7, 30+round)
		ix.Fit(data, 2)
		replay := New(Params{Bits: 5, Probes: 8, Seed: 13})
		replay.Fit(first, 1)
		replay.Fit(data, 1)
		got := ix.TopK(queries, 6, 2)
		want := replay.TopK(queries, 6, 1)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: reused index deviates from a first-fit-then-this-fit replay", round)
		}
	}
}

// TestProbeFloorGuaranteesFullRows: even with a tiny probe floor every
// result row holds exactly k entries — queries keep probing until their
// pool reaches k.
func TestProbeFloorGuaranteesFullRows(t *testing.T) {
	data := randRows(200, 6, 8)
	queries := randRows(50, 6, 9)
	ix := New(Params{Bits: 7, Probes: 1, Seed: 3})
	ix.Fit(data, 1)
	k := 25
	res := ix.TopK(queries, k, 1)
	for i, row := range res.Idx {
		if len(row) != k {
			t.Fatalf("query %d gathered only %d of %d candidates", i, len(row), k)
		}
		seen := map[int32]bool{}
		for _, j := range row {
			if seen[j] {
				t.Fatalf("query %d: duplicate candidate %d", i, j)
			}
			seen[j] = true
		}
	}
}

// TestAutoParams pins the resolution rules the config layer documents.
func TestAutoParams(t *testing.T) {
	cases := []struct {
		n, bits int
	}{
		{1, 4}, {256, 4}, {300, 5}, {5000, 9}, {100000, 13}, {1 << 30, MaxBits},
	}
	for _, tc := range cases {
		if got := AutoBits(tc.n); got != tc.bits {
			t.Errorf("AutoBits(%d) = %d, want %d", tc.n, got, tc.bits)
		}
	}
	if got := AutoProbes(4); got != 16 {
		t.Errorf("AutoProbes(4) = %d, want 16 (capped at the bucket count)", got)
	}
	if got := AutoProbes(6); got != 64 {
		t.Errorf("AutoProbes(6) = %d, want 64 (capped at the bucket count)", got)
	}
	if got := AutoProbes(13); got != 208 {
		t.Errorf("AutoProbes(13) = %d, want 208", got)
	}
	if !(Params{Bits: 4, Probes: AutoProbes(4)}).Exact() {
		t.Error("auto probes at 4 bits should reach every bucket (exact)")
	}
}

// recallOf measures candidate recall: the fraction of the reference
// top-k ids the approximate result recovered, pooled over all queries.
func recallOf(got, want *Result) float64 {
	var hit, total int
	for i := range want.Idx {
		w := make(map[int32]bool, len(want.Idx[i]))
		for _, j := range want.Idx[i] {
			w[j] = true
		}
		for _, j := range got.Idx[i] {
			if w[j] {
				hit++
			}
		}
		total += len(want.Idx[i])
	}
	return float64(hit) / float64(total)
}

// normalizeRow scales one row to unit L2 norm in place.
func normalizeRow(row []float64) {
	var s float64
	for _, v := range row {
		s += v * v
	}
	if s == 0 {
		return
	}
	inv := 1 / math.Sqrt(s)
	for j := range row {
		row[j] *= inv
	}
}

// TestRefitBitStableWhenUnmoved: re-fitting the identical matrix onto
// the frozen geometry must leave results bit-identical.
func TestRefitBitStableWhenUnmoved(t *testing.T) {
	data := randRows(500, 8, 17)
	queries := randRows(120, 8, 18)
	ix := New(Params{Bits: 6, Probes: 12, Seed: 5})
	ix.Fit(data, 2)
	want := ix.TopK(queries, 8, 2)
	ix.Fit(data, 2)
	got := ix.TopK(queries, 8, 2)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("re-fitting unchanged data changed the results")
	}
	if st := ix.Stats(); st.Fits != 2 || st.Rows != 1000 {
		t.Fatalf("stats miscounted fits/rows: %+v", st)
	}
}

// refitInputs is a fit sequence of the fine-tuning shape: fit a, then
// b, where about 30% of a's rows moved — half of them hard, half by
// about 1.4%, under the 2% a partial recode once skipped — and the rest
// are unchanged.
func refitInputs() (a, b, queries *dense.Matrix) {
	const n, d = 2000, 8
	a = randRows(n, d, 61)
	b = a.Clone()
	rng := rand.New(rand.NewSource(161))
	for i := 0; i < n; i++ {
		if rng.Float64() >= 0.3 {
			continue
		}
		scale := 0.5
		if rng.Intn(2) == 0 {
			scale = 0.004
		}
		row := b.Row(i)
		for j := range row {
			row[j] += scale * rng.NormFloat64()
		}
		normalizeRow(row)
	}
	return a, b, randRows(200, d, 62)
}

// to32 narrows a matrix to the float32 tier.
func to32(m *dense.Matrix) *dense.Matrix32 {
	out := dense.New32(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = float32(v)
	}
	return out
}

// resultDigest is the SHA-256 of every result id (uint32) and every
// score's float64 bits, little-endian, in row order.
func resultDigest(rs ...*Result) string {
	h := sha256.New()
	var buf [12]byte
	for _, r := range rs {
		for i, ids := range r.Idx {
			for p, id := range ids {
				binary.LittleEndian.PutUint32(buf[:4], uint32(id))
				binary.LittleEndian.PutUint64(buf[4:], math.Float64bits(r.Score[i][p]))
				h.Write(buf[:])
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// refitParams is the geometry of the pinned-bits tests.
var refitParams = Params{Bits: 7, Probes: 12, Seed: 37}

// TestRefitPinnedBits pins the float64 tier's fit path: fit a, query,
// fit b (refitInputs), query again. The digest was computed at commit
// 83004fa with RefitEps: -1, the setting that recoded every row on every
// fit, so every fit must still recode every row on the geometry frozen
// at the first.
func TestRefitPinnedBits(t *testing.T) {
	a, b, q := refitInputs()
	ix := New(refitParams)
	ix.Fit(a, 2)
	first := ix.TopK(q, 10, 2)
	ix.Fit(b, 2)
	second := ix.TopK(q, 10, 2)
	const want = "844eeb6b251b548f316012d0764e6987f0bdf4891d63f3001cf34834f1845882"
	if got := resultDigest(first, second); got != want {
		t.Fatalf("fit sequence digest %s, want %s", got, want)
	}
}

// TestRefitPinnedBits32 is TestRefitPinnedBits on the float32 tier
// (Fit32/TopK32); its digest, too, was computed at commit 83004fa with
// RefitEps: -1.
func TestRefitPinnedBits32(t *testing.T) {
	a, b, q := refitInputs()
	q32 := to32(q)
	ix := New(refitParams)
	ix.Fit32(to32(a), 2)
	first := ix.TopK32(q32, 10, 2)
	ix.Fit32(to32(b), 2)
	second := ix.TopK32(q32, 10, 2)
	const want = "5f63a793331bb84f11c0a83feb4237d5d61dfddfa0601f3c2d13a5a23d737fed"
	if got := resultDigest(first, second); got != want {
		t.Fatalf("fit sequence digest %s, want %s", got, want)
	}
}

// TestRefitDriftKeepsRecall: the hash geometry stays frozen at the
// first fit while the rows drift away from the data it was drawn for;
// multi-probe must absorb that. All rows drift slightly, a quarter move
// hard, and candidate recall against the exact ranking of the *new*
// data must hold.
func TestRefitDriftKeepsRecall(t *testing.T) {
	const n, d, k = 2000, 10, 16
	a := randRows(n, d, 31)
	b := a.Clone()
	rng := rand.New(rand.NewSource(131))
	for i := 0; i < n; i++ {
		row := b.Row(i)
		scale := 0.003
		if rng.Float64() < 0.25 {
			scale = 0.5
		}
		for j := range row {
			row[j] += scale * rng.NormFloat64()
		}
		normalizeRow(row)
	}
	queries := randRows(300, d, 32)
	ix := New(Params{Bits: 8, Probes: 128, Seed: 3})
	ix.Fit(a, 2)
	ix.Fit(b, 2)
	got := ix.TopK(queries, k, 2)
	want := bruteTopK(queries, b, k)
	if r := recallOf(got, want); r < 0.95 {
		t.Fatalf("recall after drift = %.3f, want >= 0.95", r)
	}
}

// TestPoolCapBoundsPool: a pool cap bounds every query's gathered pool
// at max(k, PoolCap) rows, result rows stay full and duplicate-free, and
// the margin-ordered truncation keeps recall high — the capped pool
// drops the most expensive buckets, not the nearest ones.
func TestPoolCapBoundsPool(t *testing.T) {
	const n, k, cap = 2000, 10, 600
	data := randRows(n, 8, 41)
	queries := randRows(250, 8, 42)
	capped := New(Params{Bits: 8, Probes: 128, PoolCap: cap, Seed: 7})
	capped.Fit(data, 2)
	got := capped.TopK(queries, k, 2)
	st := capped.Stats()
	if st.PoolRowsMax > cap {
		t.Fatalf("pool reached %d rows, cap is %d", st.PoolRowsMax, cap)
	}
	if st.PoolRowsMax == 0 || st.Queries != 250 {
		t.Fatalf("pool stats not recorded: %+v", st)
	}
	for i, row := range got.Idx {
		if len(row) != k {
			t.Fatalf("query %d returned %d of %d rows", i, len(row), k)
		}
		seen := map[int32]bool{}
		for _, j := range row {
			if seen[j] {
				t.Fatalf("query %d: duplicate candidate %d", i, j)
			}
			seen[j] = true
		}
	}
	if r := recallOf(got, bruteTopK(queries, data, k)); r < 0.95 {
		t.Fatalf("recall under pool cap = %.3f, want >= 0.95", r)
	}
	// A cap below k is lifted to k: rows must still come back full.
	tiny := New(Params{Bits: 6, Probes: 4, PoolCap: 1, Seed: 7})
	tiny.Fit(data, 1)
	res := tiny.TopK(queries, k, 1)
	for i, row := range res.Idx {
		if len(row) != k {
			t.Fatalf("cap < k: query %d returned %d of %d rows", i, len(row), k)
		}
	}
}

// skewPair mirrors the GCN collapse the balancing exists for: every row
// is ±√(1−ρ²)·v (one shared dominant direction) plus a ρ-scaled unit
// residual drawn from a rank-r subspace orthogonal to v — collapsed
// embeddings keep a dominant direction AND low effective rank. Raw SRP
// bits all follow sign(±v·g), so the unbalanced index piles most rows
// into a few hot buckets, while the ranking signal lives entirely in
// the residuals. Data and queries share the same v and subspace, as two
// fine-tune iterations of one embedding would.
func skewPair(n, nq, d, r int, rho float64, seed int64) (data, queries *dense.Matrix) {
	rng := rand.New(rand.NewSource(seed))
	// Orthonormal basis: v plus r residual directions, by Gram-Schmidt.
	basis := make([][]float64, r+1)
	for b := range basis {
		u := make([]float64, d)
		for j := range u {
			u[j] = rng.NormFloat64()
		}
		for _, prev := range basis[:b] {
			var p float64
			for j := range u {
				p += u[j] * prev[j]
			}
			for j := range u {
				u[j] -= p * prev[j]
			}
		}
		normalizeRow(u)
		basis[b] = u
	}
	v := basis[0]
	a := math.Sqrt(1 - rho*rho)
	w := make([]float64, r)
	gen := func(rows int) *dense.Matrix {
		m := dense.New(rows, d)
		for i := 0; i < rows; i++ {
			c := a
			if rng.Intn(2) == 1 {
				c = -a
			}
			for l := range w {
				w[l] = rng.NormFloat64()
			}
			normalizeRow(w)
			row := m.Row(i)
			for j := range row {
				row[j] = c * v[j]
				for l, u := range basis[1:] {
					row[j] += rho * w[l] * u[j]
				}
			}
		}
		return m
	}
	return gen(n), gen(nq)
}

// TestSkewBalancedBeatsUnbalanced is the tentpole property, tested
// across sizes and seeds: on collapse-skewed rows the balanced index
// gathers ≥ 5× fewer pool rows per query than the unbalanced one at
// equal bits/probes, while keeping candidate recall ≥ 0.95 against the
// exact ranking.
func TestSkewBalancedBeatsUnbalanced(t *testing.T) {
	for _, tc := range []struct {
		n    int
		seed int64
	}{
		{5000, 51}, {8000, 52},
	} {
		const d, k = 16, 16
		data, queries := skewPair(tc.n, 400, d, 4, 0.2, tc.seed)
		p := Params{Bits: 11, Probes: 48, Seed: 19}
		balanced := New(p)
		balanced.Fit(data, 2)
		gotB := balanced.TopK(queries, k, 2)
		pu := p
		pu.Unbalanced = true
		unbalanced := New(pu)
		unbalanced.Fit(data, 2)
		unbalanced.TopK(queries, k, 2)
		mb := balanced.Stats().PoolRowsMean()
		mu := unbalanced.Stats().PoolRowsMean()
		if mb <= 0 || mu <= 0 {
			t.Fatalf("n=%d: pool stats missing (balanced %.1f, unbalanced %.1f)", tc.n, mb, mu)
		}
		if mu < 5*mb {
			t.Errorf("n=%d seed=%d: unbalanced mean pool %.1f not >= 5x balanced %.1f",
				tc.n, tc.seed, mu, mb)
		}
		if r := recallOf(gotB, bruteTopK(queries, data, k)); r < 0.95 {
			t.Errorf("n=%d seed=%d: balanced recall on skewed rows = %.3f, want >= 0.95",
				tc.n, tc.seed, r)
		}
		st := balanced.Stats()
		if st.Buckets != 1<<11 {
			t.Fatalf("stats report %d buckets, want %d", st.Buckets, 1<<11)
		}
		var occupied int64
		for _, c := range st.Occupancy {
			occupied += c
		}
		if occupied == 0 || occupied > int64(st.Buckets) {
			t.Fatalf("occupancy histogram inconsistent: %v", st.Occupancy)
		}
	}
}
