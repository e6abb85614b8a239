// Package ann is the approximate candidate generator behind the "ann"
// similarity backend: a signed-random-projection LSH index over the rows
// of a dense matrix. Rows hash into 2^Bits buckets by the sign pattern of
// Bits random projections; a query scans its own bucket plus the
// cheapest perturbed buckets in multi-probe order (Lv et al., VLDB'07)
// and exactly re-ranks the gathered pool by inner product. Probing every
// bucket degrades gracefully into a brute-force scan, which is the
// exactness escape hatch: a full-probe index reproduces the blocked
// exact top-k scan bit for bit.
//
// The hash is data-aware: the index centers the fitted rows and draws
// its hyperplanes through a sampled-covariance whitening rotation, so
// every bit splits the data roughly in half even when the rows collapse
// toward a dominant direction (the GCN failure mode on low-signal
// graphs). Buckets that still come out oversized are re-hashed one level
// deeper with a fresh locally-centered plane set (see balance.go), and a
// per-query pool cap can bound the gathered candidate pool in
// margin-probe order. Params.Unbalanced restores the raw SRP index for
// A/B comparison.
//
// Refitting a same-shaped matrix into an index (the fine-tuning loop)
// keeps the planes and whitening frozen at the first Fit and recodes
// every row through them; the bucket arrays are rebuilt in place.
//
// The package is metric-agnostic — it ranks by plain inner product — so
// the caller owns the metric: the align layer centers and row-normalises
// embeddings first, turning inner products into Pearson correlations.
// Everything is deterministic: the hyperplanes are drawn from the seed,
// bucket assembly is a stable counting sort, probe order breaks cost
// ties by perturbation mask, and re-ranking scores every candidate with
// the same sequential dot product as the dense kernel, so results are
// identical for every worker count. The re-rank keeps the k best through
// internal/topk, the selector of the blocked scan, so equal pools give
// equal output.
package ann

import (
	"fmt"
	"math"
	"math/bits"

	"github.com/htc-align/htc/internal/dense"
	"github.com/htc-align/htc/internal/par"
	"github.com/htc-align/htc/internal/topk"
)

// MaxBits caps the code width: the bucket-offset table costs O(2^Bits),
// so 20 bits (1M buckets, 4 MB of offsets) is the widest code worth
// paying for before the table dominates the candidate structures.
const MaxBits = 20

// Params fix an index's geometry. The align/core layers resolve zero
// values to AutoBits/AutoProbes before building an index.
type Params struct {
	// Bits is the code width b ∈ [1, MaxBits]: rows hash into 2^b
	// buckets by the sign pattern of b random projections.
	Bits int
	// Probes is the minimum number of buckets scanned per query, visited
	// in multi-probe order (cheapest perturbations of the query's own
	// code first). A query keeps probing past this floor until it has
	// gathered at least k candidates, so result rows are always full.
	// Probes ≥ 2^Bits selects the brute-force exact path.
	Probes int
	// PoolCap, when positive, bounds the candidate pool gathered per
	// query to max(k, PoolCap) rows: buckets arrive in margin order
	// (cheapest perturbations first), so the cap truncates the
	// costliest, least promising buckets. 0 leaves the pool unbounded.
	PoolCap int
	// Unbalanced disables the data-aware balancing — centering, the
	// whitening rotation and the hierarchical re-hash of oversized
	// buckets — restoring the raw SRP index. Kept as the A/B baseline
	// for the skew benchmarks; leave it false in production.
	Unbalanced bool
	// Seed drives the hyperplane draw; equal seeds give identical
	// indexes.
	Seed int64
}

// Exact reports whether the parameters probe every bucket, i.e. select
// the brute-force scan that reproduces the exact top-k bit for bit.
func (p Params) Exact() bool { return p.Probes >= 1<<p.Bits }

// AutoBits picks a code width for n indexed rows, targeting a mean
// bucket occupancy of ~16 rows and clamping to [4, MaxBits].
func AutoBits(n int) int {
	b := 4
	for b < MaxBits && n > 16<<b {
		b++
	}
	return b
}

// AutoProbes picks a default probe count for a code width: 16·bits,
// capped at the bucket count. The linear-in-bits schedule keeps measured
// candidate recall ≥ 0.95 on embedding-like inputs while the probed
// bucket fraction shrinks as the input grows — every bucket at ≤ 6 bits
// (exact), ~28% at 9 bits, ~2.5% at 13 bits (100k rows).
func AutoProbes(bits int) int {
	p := 16 * bits
	if full := 1 << bits; p > full {
		p = full
	}
	return p
}

// Result holds every query's top-k ids and scores; rows are sorted by
// descending score with ties broken by lower id — the same order the
// exact blocked scan produces. All rows share two backing arrays, and
// the layout mirrors align.Candidates so that layer can adopt the
// slices without copying.
type Result struct {
	K     int
	Idx   [][]int32
	Score [][]float64
}

// Index is a signed-random-projection LSH index over the rows of one
// matrix. Fit hashes the rows; TopK answers batched queries. An Index is
// reusable across Fit calls (a fine-tuning loop re-fits each iteration's
// embeddings into the same scratch) but not concurrently usable.
type Index struct {
	p      Params
	data   *dense.Matrix   // fitted rows (borrowed, not copied); nil on the f32 tier
	data32 *dense.Matrix32 // fitted rows of the f32 tier; exactly one of data/data32 is set
	n      int

	planes *dense.Matrix // Bits×d effective hyperplanes: G·T, whitened unless Unbalanced
	bias   []float64     // per-bit centering offsets μ·w̃ (zero when Unbalanced)
	xform  *dense.Matrix // d×d whitening transform T (nil when Unbalanced)
	proj   *dense.Matrix // n×Bits row projections of the last hashed fit
	codes  []uint32      // per-row bucket code
	start  []int32       // CSR bucket offsets, len 2^Bits+1
	order  []int32       // row ids grouped by bucket, stable in row order
	cursor []int32       // counting-sort scratch

	subs      []subTable // second-level tables of re-hashed oversized buckets
	subOf     []int32    // per bucket: index into subs, or -1
	subBudget int        // max rows a probed re-hashed bucket contributes
	subCode   []uint32   // sub-rehash scratch
	subTmp    []int32
	subCursor []int32
	subMean   []float64

	workers []searcher // per-worker query scratch
	stats   Stats
}

// New validates the parameters and returns an empty index; Fit must run
// before TopK.
func New(p Params) *Index {
	if p.Bits < 1 || p.Bits > MaxBits {
		panic(fmt.Sprintf("ann: Bits = %d outside [1, %d]", p.Bits, MaxBits))
	}
	if p.Probes < 1 {
		panic(fmt.Sprintf("ann: Probes = %d < 1", p.Probes))
	}
	return &Index{p: p}
}

// Params returns the index geometry.
func (ix *Index) Params() Params { return ix.p }

// Stats returns a copy of the index's cumulative skew-observability
// counters (see Stats).
func (ix *Index) Stats() Stats {
	st := ix.stats
	st.Occupancy = append([]int64(nil), ix.stats.Occupancy...)
	return st
}

// Fit (re)hashes the rows of data into the index. The matrix is
// borrowed: it must stay unmodified until the next Fit. On the exact
// path hashing is skipped entirely — a full-probe query scans every row
// anyway.
//
// The first Fit freezes the hash geometry: hyperplanes are drawn from
// the seed and rotated/centered against the fitted data (see
// buildTransform). A later Fit of a same-shaped matrix keeps that
// geometry and recodes every row through it; a shape change draws it
// again.
func (ix *Index) Fit(data *dense.Matrix, workers int) {
	ix.data, ix.data32 = data, nil
	hash, fresh := ix.begin(data.Rows, data.Cols)
	if fresh {
		ix.buildTransform(data.Cols, data.Rows, data.Row)
	}
	if hash {
		dense.MulBTInto(ix.proj, data, ix.planes, workers)
		ix.encode(workers)
	}
}

// Fit32 is Fit for the float32 compute tier: the same frozen geometry
// over half-width rows. Projections accumulate in float64 (see dot32),
// so codes are exactly as deterministic as the float64 tier's. An index
// fitted with Fit32 answers queries through TopK32.
func (ix *Index) Fit32(data *dense.Matrix32, workers int) {
	ix.data, ix.data32 = nil, data
	hash, fresh := ix.begin(data.Rows, data.Cols)
	if fresh {
		// The whitening sample reads ~annSampleTarget rows; widening them
		// through one reused buffer keeps the transform math — and hence
		// the frozen geometry — in float64 regardless of the tier.
		buf := make([]float64, data.Cols)
		ix.buildTransform(data.Cols, data.Rows, func(i int) []float64 {
			for j, v := range data.Row(i) {
				buf[j] = float64(v)
			}
			return buf
		})
	}
	if hash {
		dense.MulBTMixed32Into(ix.proj, data, ix.planes, workers)
		ix.encode(workers)
	}
}

// begin counts a fit of an n×d matrix and reports whether its rows are
// hashed (not on the exact path, not when empty) and whether the hash
// geometry must be drawn first: on the first hashed fit, and whenever
// the shape differs from the last hashed fit's. It sizes the n×Bits
// projection scratch, whose shape records that last fit.
func (ix *Index) begin(n, d int) (hash, fresh bool) {
	ix.n = n
	ix.stats.Fits++
	if ix.p.Exact() || n == 0 {
		return false, false
	}
	ix.stats.Rows += int64(n)
	fresh = ix.planes == nil || ix.planes.Cols != d || ix.proj.Rows != n
	ix.proj = dense.Ensure(ix.proj, n, ix.p.Bits)
	return true, fresh
}

// encode is the one encode-and-bucket step of both tiers: bit j of a
// row's code is set when its projection clears the j-th centering
// offset, then the buckets and their second-level tables are rebuilt.
// The projection kernels are deterministic for every worker count, so
// the codes are too.
func (ix *Index) encode(workers int) {
	ix.codes = growInt32sAsU32(ix.codes, ix.n)
	par.For(workers, ix.n, ix.p.Bits, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			var c uint32
			for j, v := range ix.proj.Row(i) {
				if v-ix.bias[j] >= 0 {
					c |= 1 << uint(j)
				}
			}
			ix.codes[i] = c
		}
	})
	ix.buildBuckets()
	ix.buildSubs()
}

// buildBuckets (re)assembles the CSR buckets from the codes — a stable
// counting sort: offsets, then rows in ascending id order within each
// bucket — and refreshes the last-fit occupancy statistics.
func (ix *Index) buildBuckets() {
	nb := 1 << ix.p.Bits
	ix.start = growInt32s(ix.start, nb+1)
	ix.cursor = growInt32s(ix.cursor, nb)
	for i := range ix.start[:nb+1] {
		ix.start[i] = 0
	}
	for _, c := range ix.codes[:ix.n] {
		ix.start[c+1]++
	}
	for b := 0; b < nb; b++ {
		ix.start[b+1] += ix.start[b]
	}
	copy(ix.cursor, ix.start[:nb])
	ix.order = growInt32s(ix.order, ix.n)
	for i, c := range ix.codes[:ix.n] {
		ix.order[ix.cursor[c]] = int32(i)
		ix.cursor[c]++
	}
	ix.stats.Buckets = nb
	ix.stats.MaxBucket = 0
	if ix.stats.Occupancy == nil {
		ix.stats.Occupancy = make([]int64, 33)
	}
	for i := range ix.stats.Occupancy {
		ix.stats.Occupancy[i] = 0
	}
	for b := 0; b < nb; b++ {
		size := int(ix.start[b+1] - ix.start[b])
		if size > ix.stats.MaxBucket {
			ix.stats.MaxBucket = size
		}
		if size > 0 {
			ix.stats.Occupancy[bits.Len32(uint32(size))]++
		}
	}
}

// annBlockRows sizes the per-worker query batches of TopK.
const annBlockRows = 128

// TopK returns, for every query row, its k best fitted rows by inner
// product, each result row sorted descending (ties by lower id). k is
// clamped to the fitted row count; every result row then holds exactly k
// entries — queries keep probing past the Probes floor until their pool
// reaches k. Results are bit-identical for every worker count, and on
// the exact path bit-identical to the blocked exact scan.
func (ix *Index) TopK(queries *dense.Matrix, k, workers int) *Result {
	return ix.topk(queries.Rows, k, workers, func(s *searcher, r, kk int, outIdx []int32, outScore []float64) {
		ix.search(s, queries.Row(r), nil, kk, outIdx, outScore)
	})
}

// TopK32 answers batched queries on the float32 tier, against an index
// fitted with Fit32. The probe machinery is shared with TopK; only the
// three row-scoring points (query projection, sub-bucket projection,
// exact re-rank) read half-width values, each with a float64
// accumulator. Re-rank scores round to float32 before the final widen —
// the same store semantics as dense.MulBTInto32 — so a full-probe
// float32 index reproduces the blocked float32 top-k scan bit for bit.
func (ix *Index) TopK32(queries *dense.Matrix32, k, workers int) *Result {
	return ix.topk(queries.Rows, k, workers, func(s *searcher, r, kk int, outIdx []int32, outScore []float64) {
		ix.search(s, nil, queries.Row(r), kk, outIdx, outScore)
	})
}

// topk is the tier-agnostic batching wrapper behind TopK/TopK32: result
// allocation, pool-cap resolution, worker scratch, block sharding and
// the deterministic stats fold.
func (ix *Index) topk(nq, k, workers int, query func(s *searcher, r, k int, outIdx []int32, outScore []float64)) *Result {
	if k < 1 {
		panic(fmt.Sprintf("ann: TopK k = %d < 1", k))
	}
	if k > ix.n {
		k = ix.n
	}
	out := &Result{
		K:     k,
		Idx:   make([][]int32, nq),
		Score: make([][]float64, nq),
	}
	idxBack := make([]int32, nq*k)
	scoreBack := make([]float64, nq*k)
	for i := 0; i < nq; i++ {
		out.Idx[i] = idxBack[i*k : i*k+k : i*k+k]
		out.Score[i] = scoreBack[i*k : i*k+k : i*k+k]
	}
	if nq == 0 || k == 0 {
		return out
	}
	pcap := 0
	if ix.p.PoolCap > 0 {
		pcap = ix.p.PoolCap
		if pcap < k {
			pcap = k
		}
	}
	nBlocks := (nq + annBlockRows - 1) / annBlockRows
	w := par.Resolve(workers)
	if w > nBlocks {
		w = nBlocks
	}
	if len(ix.workers) < w {
		ix.workers = append(ix.workers, make([]searcher, w-len(ix.workers))...)
	}
	for i := 0; i < w; i++ {
		s := &ix.workers[i]
		s.cap = pcap
		s.queries, s.poolRows, s.maxPool = 0, 0, 0
	}
	par.Sharded(w, nBlocks, func(worker, blk int) {
		s := &ix.workers[worker]
		lo := blk * annBlockRows
		hi := lo + annBlockRows
		if hi > nq {
			hi = nq
		}
		for r := lo; r < hi; r++ {
			query(s, r, k, out.Idx[r], out.Score[r])
		}
	})
	// Fold the per-worker counters into the index stats. Integer sums
	// are order-independent, so the totals are deterministic for every
	// worker count.
	for i := 0; i < w; i++ {
		s := &ix.workers[i]
		ix.stats.Queries += s.queries
		ix.stats.PoolRows += s.poolRows
		if s.maxPool > ix.stats.PoolRowsMax {
			ix.stats.PoolRowsMax = s.maxPool
		}
	}
	return out
}

// searcher is one worker's private query scratch.
type searcher struct {
	z    []float64 // query projections (bias-adjusted)
	abs  []float64 // projection margins |z|
	perm []int     // bit positions sorted by ascending margin
	heap probeHeap // pending perturbation sets of the main probe loop
	pool []int32
	// deferred holds (lo, hi) pairs of order-array segments set aside by
	// sub-bucketed gathers: the parent-bucket rows beyond the sub-probe
	// budget, drained in probe order only if the pool falls short of k.
	deferred []int32
	// Sub-probe scratch: the same margin/heap machinery one level down,
	// over a re-hashed bucket's second-level table.
	subZ    []float64
	subAbs  []float64
	subPerm []int
	subHeap probeHeap
	visited []int32 // (lo, hi) sub-bucket spans taken from the current bucket

	q   []float64 // current query row (borrowed during one search; nil on the f32 tier)
	q32 []float32 // current f32-tier query row (exactly one of q/q32 is set)
	cap int       // effective pool cap for this TopK call (0 = none)
	// scores holds the re-rank scores of the pool, selected from by sel.
	scores []float64
	sel    topk.Selector

	queries  int64 // per-TopK stat accumulators
	poolRows int64
	maxPool  int
}

// take appends candidate rows to the pool, honouring the pool cap.
func (s *searcher) take(rows []int32) {
	if s.cap > 0 {
		if room := s.cap - len(s.pool); room < len(rows) {
			if room <= 0 {
				return
			}
			rows = rows[:room]
		}
	}
	s.pool = append(s.pool, rows...)
}

// wantMore reports whether the probe loop should keep visiting buckets:
// past the configured floor only while the pool is short of k, and never
// once the pool cap is reached.
func (s *searcher) wantMore(k, probed, floor int) bool {
	if s.cap > 0 && len(s.pool) >= s.cap {
		return false
	}
	return probed < floor || len(s.pool) < k
}

// search fills one query's k best rows. The approximate path hashes the
// query, walks buckets in multi-probe order until it has probed the
// configured count and gathered ≥ k candidates, and exactly re-ranks the
// pool; the exact path scans every row. Exactly one of q/q32 is non-nil
// and selects the precision tier — both tiers share every structural
// step and differ only where a row is scored.
func (ix *Index) search(s *searcher, q []float64, q32 []float32, k int, outIdx []int32, outScore []float64) {
	s.queries++
	if ix.p.Exact() {
		ix.rerank(s, q, q32, nil, outIdx, outScore)
		return
	}
	s.q = q
	s.q32 = q32
	nbits := ix.p.Bits
	s.z = resize(s.z, nbits)
	s.abs = resize(s.abs, nbits)
	for j := 0; j < nbits; j++ {
		if q32 != nil {
			s.z[j] = dot32(q32, ix.planes.Row(j)) - ix.bias[j]
		} else {
			s.z[j] = dot(q, ix.planes.Row(j)) - ix.bias[j]
		}
		s.abs[j] = math.Abs(s.z[j])
	}
	var code uint32
	for j, v := range s.z {
		if v >= 0 {
			code |= 1 << uint(j)
		}
	}
	// Sort bit positions by ascending margin (ties by lower position):
	// flipping a near-zero projection is the cheapest perturbation.
	// Insertion sort — nbits ≤ 20.
	if cap(s.perm) < nbits {
		s.perm = make([]int, nbits)
	}
	s.perm = s.perm[:nbits]
	for j := range s.perm {
		s.perm[j] = j
	}
	for i := 1; i < nbits; i++ {
		p := s.perm[i]
		j := i
		for j > 0 && s.abs[p] < s.abs[s.perm[j-1]] {
			s.perm[j] = s.perm[j-1]
			j--
		}
		s.perm[j] = p
	}

	// Walk buckets in multi-probe order: the query's own bucket, then
	// perturbation sets popped cheapest-first, each pop seeding its
	// shift and expand successors (every non-empty set is generated
	// exactly once). Keep probing past the floor until the pool covers
	// k — the full enumeration reaches every bucket, and any rows a
	// sub-bucketed gather deferred are drained afterwards, so pool ≥ k
	// always terminates.
	s.heap.reset()
	s.pool = s.pool[:0]
	s.deferred = s.deferred[:0]
	ix.gather(s, code)
	s.heap.push(s.abs[s.perm[0]], 1)
	total := 1 << nbits
	for probed := 1; s.wantMore(k, probed, ix.p.Probes) && probed < total && s.heap.len() > 0; probed++ {
		cost, mask := s.heap.pop()
		var flip uint32
		for m := mask; m != 0; m &= m - 1 {
			flip |= 1 << uint(s.perm[bits.TrailingZeros32(m)])
		}
		ix.gather(s, code^flip)
		if top := bits.Len32(mask) - 1; top+1 < nbits {
			mTop := s.abs[s.perm[top]]
			mNext := s.abs[s.perm[top+1]]
			s.heap.push(cost-mTop+mNext, mask&^(1<<uint(top))|1<<uint(top+1)) // shift
			s.heap.push(cost+mNext, mask|1<<uint(top+1))                      // expand
		}
	}
	for di := 0; di+1 < len(s.deferred) && len(s.pool) < k; di += 2 {
		s.take(ix.order[s.deferred[di]:s.deferred[di+1]])
	}
	ix.rerank(s, q, q32, s.pool, outIdx, outScore)
}

// rerank counts the pool in the searcher's stats, scores every pool row
// against the query by sequential dot product (the dense kernel's
// per-cell association) and selects the k = len(outIdx) best through
// topk.Select. A nil pool is every fitted row: the exact full scan. On
// the f32 tier a score accumulates in float64 and rounds to float32
// before it widens, as dense.MulBTInto32 stores it, so a full-probe f32
// index agrees bit for bit with the blocked f32 scan.
func (ix *Index) rerank(s *searcher, q []float64, q32 []float32, pool []int32, outIdx []int32, outScore []float64) {
	n := len(pool)
	if pool == nil {
		n = ix.n
	}
	s.poolRows += int64(n)
	if n > s.maxPool {
		s.maxPool = n
	}
	sc := resize(s.scores, n)
	for p := range sc {
		j := p
		if pool != nil {
			j = int(pool[p])
		}
		if q32 != nil {
			row := ix.data32.Row(j)
			var v float64
			for i, qv := range q32 {
				v += float64(qv) * float64(row[i])
			}
			sc[p] = float64(float32(v))
		} else {
			sc[p] = dot(q, ix.data.Row(j))
		}
	}
	s.scores = sc
	topk.Select(&s.sel, outIdx, outScore, pool, sc)
}

// gather appends one bucket's rows to the candidate pool. Buckets
// partition the rows, so the pool never holds duplicates. A bucket that
// was re-hashed one level deeper (see buildSubs) is walked through the
// same margin-ordered multi-probe one level down, and contributes at
// most subBudget rows — the size of the largest allowed ordinary bucket
// — so a hot bucket can't flood the pool; the unvisited remainder is
// deferred, to be drained after the probe loop only if the pool falls
// short of k.
func (ix *Index) gather(s *searcher, bucket uint32) {
	lo, hi := ix.start[bucket], ix.start[bucket+1]
	if lo == hi {
		return
	}
	si := int32(-1)
	if len(ix.subs) > 0 {
		si = ix.subOf[bucket]
	}
	if si < 0 {
		s.take(ix.order[lo:hi])
		return
	}
	st := &ix.subs[si]
	sb := st.bits
	s.subZ = resize(s.subZ, sb)
	s.subAbs = resize(s.subAbs, sb)
	var code uint32
	for j := 0; j < sb; j++ {
		var z float64
		if s.q32 != nil {
			z = dot32(s.q32, st.planes.Row(j)) - st.bias[j]
		} else {
			z = dot(s.q, st.planes.Row(j)) - st.bias[j]
		}
		s.subZ[j] = z
		s.subAbs[j] = math.Abs(z)
		if z >= 0 {
			code |= 1 << uint(j)
		}
	}
	if cap(s.subPerm) < sb {
		s.subPerm = make([]int, sb)
	}
	s.subPerm = s.subPerm[:sb]
	for j := range s.subPerm {
		s.subPerm[j] = j
	}
	for i := 1; i < sb; i++ {
		p := s.subPerm[i]
		j := i
		for j > 0 && s.subAbs[p] < s.subAbs[s.subPerm[j-1]] {
			s.subPerm[j] = s.subPerm[j-1]
			j--
		}
		s.subPerm[j] = p
	}
	taken := 0
	s.visited = s.visited[:0]
	probe := func(c uint32) {
		slo, shi := lo+st.start[c], lo+st.start[c+1]
		if slo == shi {
			return
		}
		s.take(ix.order[slo:shi])
		taken += int(shi - slo)
		s.visited = append(s.visited, slo, shi)
	}
	s.subHeap.reset()
	probe(code)
	s.subHeap.push(s.subAbs[s.subPerm[0]], 1)
	total := 1 << uint(sb)
	for probed := 1; taken < ix.subBudget && probed < total && s.subHeap.len() > 0; probed++ {
		cost, mask := s.subHeap.pop()
		var flip uint32
		for m := mask; m != 0; m &= m - 1 {
			flip |= 1 << uint(s.subPerm[bits.TrailingZeros32(m)])
		}
		probe(code ^ flip)
		if top := bits.Len32(mask) - 1; top+1 < sb {
			mTop := s.subAbs[s.subPerm[top]]
			mNext := s.subAbs[s.subPerm[top+1]]
			s.subHeap.push(cost-mTop+mNext, mask&^(1<<uint(top))|1<<uint(top+1))
			s.subHeap.push(cost+mNext, mask|1<<uint(top+1))
		}
	}
	// Defer the unvisited remainder. Sub-buckets are contiguous spans of
	// the parent segment, so the complement of the visited spans is a
	// handful of gaps: sort the visited spans positionally (they arrived
	// in margin order) and emit what lies between them.
	for i := 2; i < len(s.visited); i += 2 {
		vlo, vhi := s.visited[i], s.visited[i+1]
		j := i
		for j > 0 && vlo < s.visited[j-2] {
			s.visited[j], s.visited[j+1] = s.visited[j-2], s.visited[j-1]
			j -= 2
		}
		s.visited[j], s.visited[j+1] = vlo, vhi
	}
	prev := lo
	for i := 0; i < len(s.visited); i += 2 {
		if s.visited[i] > prev {
			s.deferred = append(s.deferred, prev, s.visited[i])
		}
		prev = s.visited[i+1]
	}
	if prev < hi {
		s.deferred = append(s.deferred, prev, hi)
	}
}

// probeHeap is a binary min-heap of pending perturbation sets, ordered
// by (cost, mask): cost is the summed margin of the flipped bits, the
// mask identifies the set over margin-sorted positions and breaks cost
// ties deterministically. The main probe loop and the sub-probe of a
// re-hashed bucket each run one.
type probeHeap struct {
	c []float64
	m []uint32
}

func (h *probeHeap) reset()   { h.c, h.m = h.c[:0], h.m[:0] }
func (h *probeHeap) len() int { return len(h.c) }

// push adds a pending perturbation set.
func (h *probeHeap) push(cost float64, mask uint32) {
	h.c = append(h.c, cost)
	h.m = append(h.m, mask)
	i := len(h.c) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !probeLess(h.c[i], h.m[i], h.c[p], h.m[p]) {
			return
		}
		h.c[i], h.c[p] = h.c[p], h.c[i]
		h.m[i], h.m[p] = h.m[p], h.m[i]
		i = p
	}
}

// pop removes and returns the cheapest pending perturbation set.
func (h *probeHeap) pop() (float64, uint32) {
	cost, mask := h.c[0], h.m[0]
	n := len(h.c) - 1
	h.c[0], h.m[0] = h.c[n], h.m[n]
	h.c = h.c[:n]
	h.m = h.m[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && probeLess(h.c[r], h.m[r], h.c[l], h.m[l]) {
			m = r
		}
		if !probeLess(h.c[m], h.m[m], h.c[i], h.m[i]) {
			break
		}
		h.c[i], h.c[m] = h.c[m], h.c[i]
		h.m[i], h.m[m] = h.m[m], h.m[i]
		i = m
	}
	return cost, mask
}

// probeLess orders perturbation sets by cost, ties by mask.
func probeLess(c1 float64, m1 uint32, c2 float64, m2 uint32) bool {
	if c1 != c2 {
		return c1 < c2
	}
	return m1 < m2
}

// dot is the sequential inner product — the exact association the dense
// kernel uses per cell, which is what makes full-probe results
// bit-identical to the blocked scan, and a query's code bit-identical
// to the batch projection of an equal fitted row.
func dot(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// dot32 is the mixed-precision inner product of the f32 tier's hashing
// side: half-width row values against float64 hyperplanes, accumulated
// in float64 — bit-identical to dense.MulBTMixed32Into's per-cell
// association.
func dot32(a []float32, b []float64) float64 {
	var s float64
	for i, v := range a {
		s += float64(v) * b[i]
	}
	return s
}

// resize returns a slice of exactly n elements, reusing capacity.
func resize(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// growInt32s returns an int32 slice of exactly n elements, reusing
// capacity.
func growInt32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// growInt32sAsU32 is growInt32s for uint32 slices.
func growInt32sAsU32(s []uint32, n int) []uint32 {
	if cap(s) < n {
		return make([]uint32, n)
	}
	return s[:n]
}
