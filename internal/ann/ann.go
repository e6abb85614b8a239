// Package ann is the approximate candidate generator behind the "ann"
// similarity backend: a signed-random-projection LSH index over the rows
// of a dense matrix. Rows hash into 2^Bits buckets by the sign pattern of
// Bits random projections; a query scans its own bucket plus the
// cheapest perturbed buckets in multi-probe order (Lv et al., VLDB'07)
// and exactly re-ranks the gathered pool by inner product. An index with
// zero bits, or whose probes cover every bucket (the exactness escape
// hatch), hashes nothing and runs the exact blocked scan: each block of
// queries is scored against every fitted row by one dense product and
// each query keeps its k best. That scan is the aligner's one exact
// top-k: the "topk" backend runs a zero-bits index.
//
// The hash is data-aware: the index centers the fitted rows and draws
// its hyperplanes through a sampled-covariance whitening rotation, so
// every bit splits the data roughly in half even when the rows collapse
// toward a dominant direction (the GCN failure mode on low-signal
// graphs). Buckets that still come out oversized are re-hashed one level
// deeper with a fresh locally-centered plane set (see balance.go), and a
// per-query pool cap can bound the gathered candidate pool in
// margin-probe order. Params.Unbalanced restores the raw SRP index for
// A/B comparison. Both hash levels are one table type, drawn by one
// newTable, filled by one bucketSort and probed by one walker.
//
// The float32 precision tier (Params.F32) is a rounding rule on the one
// float64 path: the caller rounds the rows and queries it hands in to
// float32, and the index rounds every score of the exact scan and the
// re-rank to float32 before it selects, so a score holds the bits it
// would have as a float64-accumulated dot product of float32 values
// stored as float32.
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
// ties by perturbation mask, and the re-rank scores its pool four rows
// per pass, each row summed in index order in its own accumulator (the
// dense kernel's per-cell association), so results are identical for
// every worker count. The re-rank and the exact scan keep the k best
// through internal/topk, so equal pools give equal output.
package ann

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"github.com/htc-align/htc/internal/dense"
	"github.com/htc-align/htc/internal/par"
	"github.com/htc-align/htc/internal/topk"
)

// MaxBits caps the code width: the bucket-offset table costs O(2^Bits),
// so 20 bits (1M buckets, 4 MB of offsets) is the widest code worth
// paying for before the table dominates the candidate structures.
const MaxBits = 20

// Params fix an index's geometry and score precision. The align/core
// layers resolve zero values to AutoBits/AutoProbes before building an
// index.
type Params struct {
	// Bits is the code width b ∈ [0, MaxBits]: rows hash into 2^b
	// buckets by the sign pattern of b random projections. Zero bits
	// hash nothing: the index is the exact blocked scan.
	Bits int
	// Probes is the minimum number of buckets scanned per query, visited
	// in multi-probe order (cheapest perturbations of the query's own
	// code first). A query keeps probing past this floor until it has
	// gathered at least k candidates, so result rows are always full.
	// Probes ≥ 2^Bits selects the exact blocked scan.
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
	// F32 selects the float32 precision tier: every exact-scan and
	// re-rank score is rounded to float32 before the k best are kept.
	// Rows and queries are expected to hold float32 values already; the
	// hashing reads them as they are.
	F32 bool
	// Seed drives the hyperplane draw; equal seeds give identical
	// indexes.
	Seed int64
}

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
// descending score with ties broken by lower id. All rows share two
// backing arrays, and the layout mirrors align.Candidates so that layer
// can convert a *Result to its own type without copying.
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
	p    Params
	data *dense.Matrix // fitted rows (borrowed, not copied)
	n, d int

	top    table         // first-level table, its offsets over the whole order array
	xform  *dense.Matrix // d×d whitening transform T (nil when Unbalanced)
	proj   *dense.Matrix // n×Bits row projections of the last hashed fit
	codes  []uint32      // bucket-code scratch: every row's, then a re-hashed segment's
	order  []int32       // row ids grouped by bucket, stable in row order
	tmp    []int32       // bucket-sort output scratch of a re-hashed segment
	cursor []int32       // counting-sort scratch
	mean   []float64     // a re-hashed bucket's row mean

	subs      []table // second-level tables of re-hashed oversized buckets
	subOf     []int32 // per bucket: index into subs, or -1
	subBudget int     // max rows a probed re-hashed bucket contributes

	workers []searcher // per-worker query scratch
	stats   Stats
}

// table is one hash level: the first over every fitted row, or the
// second of one re-hashed bucket. A row's code sets bit j when its
// projection on plane j clears bias[j]; start holds the CSR offsets of
// the 2^bits buckets within the level's segment of the order array.
type table struct {
	bits   int
	planes *dense.Matrix
	bias   []float64
	start  []int32
}

// New validates the parameters and returns an empty index; Fit must run
// before TopK.
func New(p Params) *Index {
	if p.Bits < 0 || p.Bits > MaxBits {
		panic(fmt.Sprintf("ann: Bits = %d outside [0, %d]", p.Bits, MaxBits))
	}
	if p.Bits > 0 && p.Probes < 1 {
		panic(fmt.Sprintf("ann: Probes = %d < 1", p.Probes))
	}
	return &Index{p: p}
}

// Exact reports whether the parameters select the exact blocked scan:
// zero bits, or probes that cover every bucket.
func (p Params) Exact() bool { return p.Bits == 0 || p.Probes >= 1<<p.Bits }

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
// path hashing is skipped entirely — the exact scan scores every row
// anyway.
//
// The first Fit freezes the hash geometry: hyperplanes are drawn from
// the seed and rotated/centered against the fitted data (see freeze). A
// later Fit of a same-shaped matrix keeps that geometry and recodes
// every row through it; a shape change draws it again.
func (ix *Index) Fit(data *dense.Matrix, workers int) {
	ix.data = data
	if ix.begin(data.Rows, data.Cols) {
		dense.MulBTInto(ix.proj, data, ix.top.planes, workers)
		ix.encode(workers)
	}
}

// begin counts a fit of an n×d matrix and reports whether its rows are
// hashed (not on the exact path, not when empty). It draws the hash
// geometry first on the first hashed fit, and whenever the shape differs
// from the last hashed fit's, and sizes the n×Bits projection scratch,
// whose shape records that last fit.
func (ix *Index) begin(n, d int) bool {
	ix.n, ix.d = n, d
	ix.stats.Fits++
	if ix.p.Exact() || n == 0 {
		return false
	}
	ix.stats.Rows += int64(n)
	if ix.top.planes == nil || ix.top.planes.Cols != d || ix.proj.Rows != n {
		ix.freeze()
	}
	ix.proj = dense.Ensure(ix.proj, n, ix.p.Bits)
	return true
}

// newTable draws one hash level of bits planes from seed, whitened
// through the frozen transform (unless Unbalanced) and centered on mean
// (nil: no centering). Its buckets are filled by bucketSort.
func (ix *Index) newTable(bits int, seed int64, mean []float64) table {
	t := table{bits: bits, planes: dense.New(bits, ix.d), bias: make([]float64, bits)}
	rng := rand.New(rand.NewSource(seed))
	for i := range t.planes.Data {
		t.planes.Data[i] = rng.NormFloat64()
	}
	if ix.xform != nil {
		// T is symmetric, so G·Tᵀ = G·T: each effective plane w̃_j = T·g_j.
		w := dense.New(bits, ix.d)
		dense.MulBTInto(w, t.planes, ix.xform, 1)
		t.planes = w
	}
	if mean != nil {
		for j := range t.bias {
			t.bias[j] = dense.Dot(mean, t.planes.Row(j))
		}
	}
	return t
}

// project sets z[j] to x's projection on plane j less its centering
// offset, and returns x's code in t.
func (t *table) project(x, z []float64) uint32 {
	var c uint32
	for j := range t.bits {
		z[j] = dense.Dot(x, t.planes.Row(j)) - t.bias[j]
		if z[j] >= 0 {
			c |= 1 << uint(j)
		}
	}
	return c
}

// bucketSort is the stable counting sort of both levels: it sets t.start
// to the offsets of codes' buckets, then writes the ids (nil: 0, 1, …)
// into out grouped by bucket, in input order within each.
func (ix *Index) bucketSort(t *table, codes []uint32, ids, out []int32) {
	nb := 1 << t.bits
	t.start = resize(t.start, nb+1)
	clear(t.start)
	for _, c := range codes {
		t.start[c+1]++
	}
	for b := range nb {
		t.start[b+1] += t.start[b]
	}
	ix.cursor = resize(ix.cursor, nb)
	copy(ix.cursor, t.start[:nb])
	for i, c := range codes {
		id := int32(i)
		if ids != nil {
			id = ids[i]
		}
		out[ix.cursor[c]] = id
		ix.cursor[c]++
	}
}

// encode codes every row from its batch projection — bit j set when the
// projection clears the j-th centering offset — then rebuilds the
// first-level buckets, the last-fit occupancy statistics and the
// second-level tables. The projection kernels are deterministic for
// every worker count, so the codes are too.
func (ix *Index) encode(workers int) {
	ix.codes = resize(ix.codes, ix.n)
	par.For(workers, ix.n, ix.p.Bits, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			var c uint32
			for j, v := range ix.proj.Row(i) {
				if v-ix.top.bias[j] >= 0 {
					c |= 1 << uint(j)
				}
			}
			ix.codes[i] = c
		}
	})
	ix.order = resize(ix.order, ix.n)
	ix.bucketSort(&ix.top, ix.codes, nil, ix.order)
	nb := 1 << ix.p.Bits
	ix.stats.Buckets = nb
	ix.stats.MaxBucket = 0
	if ix.stats.Occupancy == nil {
		ix.stats.Occupancy = make([]int64, 33)
	}
	clear(ix.stats.Occupancy)
	for b := range nb {
		size := int(ix.top.start[b+1] - ix.top.start[b])
		ix.stats.MaxBucket = max(ix.stats.MaxBucket, size)
		if size > 0 {
			ix.stats.Occupancy[bits.Len32(uint32(size))]++
		}
	}
	ix.buildSubs()
}

// annBlockRows sizes the per-worker query batches of the hashed path.
const annBlockRows = 128

// exactBlockFloats bounds one score block of the exact scan: 2¹⁹ floats
// = 4 MiB at float64, so a block stays cache-friendly and the
// per-worker scratch of a wide fan-out stays bounded even over very
// many fitted rows.
const exactBlockFloats = 1 << 19

// exactBlockRows sizes the exact scan's query blocks for n fitted rows.
func exactBlockRows(n int) int {
	if n < 1 {
		return 256
	}
	return min(max(exactBlockFloats/n, 16), 256)
}

// TopK returns, for every query row, its k best fitted rows by inner
// product, each result row sorted descending (ties by lower id). k is
// clamped to the fitted row count; every result row then holds exactly k
// entries — queries keep probing past the Probes floor until their pool
// reaches k. Results are bit-identical for every worker count.
func (ix *Index) TopK(queries *dense.Matrix, k, workers int) *Result {
	if k < 1 {
		panic(fmt.Sprintf("ann: TopK k = %d < 1", k))
	}
	nq := queries.Rows
	k = min(k, ix.n)
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
		pcap = max(ix.p.PoolCap, k)
	}
	blockRows := annBlockRows
	if ix.p.Exact() {
		blockRows = exactBlockRows(ix.n)
	}
	nBlocks := (nq + blockRows - 1) / blockRows
	w := min(par.Resolve(workers), nBlocks)
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
		lo := blk * blockRows
		hi := min(lo+blockRows, nq)
		if ix.p.Exact() {
			ix.scan(s, queries, lo, hi, out)
			return
		}
		for r := lo; r < hi; r++ {
			ix.search(s, queries.Row(r), k, out.Idx[r], out.Score[r])
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

// scan answers queries lo..hi-1 on the exact path: one dense product
// scores the block against every fitted row — each score a sequential
// dot product in column order, rounded to float32 on the F32 tier — and
// each query keeps its k best, counting every fitted row as its pool.
func (ix *Index) scan(s *searcher, q *dense.Matrix, lo, hi int, out *Result) {
	rows, n, d := hi-lo, ix.n, q.Cols
	s.scores = resize(s.scores, rows*n)
	dense.MulBTInto(&dense.Matrix{Rows: rows, Cols: n, Data: s.scores},
		&dense.Matrix{Rows: rows, Cols: d, Data: q.Data[lo*d : hi*d]}, ix.data, 1)
	ix.round(s.scores)
	for r := range rows {
		topk.Select(&s.sel, out.Idx[lo+r], out.Score[lo+r], nil, s.scores[r*n:r*n+n])
	}
	s.queries += int64(rows)
	s.poolRows += int64(rows * n)
	if n > s.maxPool {
		s.maxPool = n
	}
}

// round rounds every score to float32 on the F32 tier, where a score is
// the float64-accumulated dot product stored as float32.
func (ix *Index) round(sc []float64) {
	if !ix.p.F32 {
		return
	}
	for i, v := range sc {
		sc[i] = float64(float32(v))
	}
}

// searcher is one worker's private query scratch.
type searcher struct {
	// top walks the first level; sub walks a re-hashed bucket's second
	// level from inside top's visit.
	top, sub walker
	pool     []int32
	// deferred holds (lo, hi) pairs of order-array segments set aside by
	// re-hashed gathers: the bucket rows beyond the sub-probe budget,
	// drained in probe order only if the pool falls short of k.
	deferred []int32
	visited  []int32 // (lo, hi) sub-bucket spans taken from the current bucket
	cap      int     // effective pool cap for this TopK call (0 = none)
	// scores holds the re-rank scores of the pool, or on the exact path
	// one block of queries scored against every fitted row; sel selects
	// from them.
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

// search fills one query's k best rows on the hashed path: it walks the
// first-level buckets until it has probed the configured count and
// gathered ≥ k candidates — the full walk reaches every bucket, and any
// rows a re-hashed gather deferred are drained afterwards, so pool ≥ k
// always terminates — and exactly re-ranks the pool.
func (ix *Index) search(s *searcher, q []float64, k int, outIdx []int32, outScore []float64) {
	s.queries++
	s.pool = s.pool[:0]
	s.deferred = s.deferred[:0]
	s.top.walk(&ix.top, q,
		func(probed int) bool { return s.wantMore(k, probed, ix.p.Probes) },
		func(b uint32) { ix.gather(s, q, b) })
	for di := 0; di+1 < len(s.deferred) && len(s.pool) < k; di += 2 {
		s.take(ix.order[s.deferred[di]:s.deferred[di+1]])
	}
	ix.rerank(s, q, outIdx, outScore)
}

// rerank counts the pool in the searcher's stats, scores every pool row
// against the query and selects the k = len(outIdx) best through
// topk.Select. Rows are scored four per pass, each summed in index order
// in its own accumulator (the dense kernel's per-cell association), and
// a tail of one to three rows one per pass, so every score has the bits
// of a sequential dot product, rounded to float32 on the F32 tier as
// the exact scan rounds it.
func (ix *Index) rerank(s *searcher, q []float64, outIdx []int32, outScore []float64) {
	pool := s.pool
	n := len(pool)
	s.poolRows += int64(n)
	if n > s.maxPool {
		s.maxPool = n
	}
	sc := resize(s.scores, n)
	m := ix.data
	p := 0
	for ; p+4 <= n; p += 4 {
		sc[p], sc[p+1], sc[p+2], sc[p+3] = dense.Dot4(q, m.Row(int(pool[p])), m.Row(int(pool[p+1])), m.Row(int(pool[p+2])), m.Row(int(pool[p+3])))
	}
	for ; p < n; p++ {
		sc[p] = dense.Dot(q, m.Row(int(pool[p])))
	}
	ix.round(sc)
	s.scores = sc
	topk.Select(&s.sel, outIdx, outScore, pool, sc)
}

// gather appends one first-level bucket's rows to the candidate pool.
// Buckets partition the rows, so the pool never holds duplicates. A
// bucket that was re-hashed one level deeper (see buildSubs) is walked
// by the same multi-probe one level down, and contributes at most
// subBudget rows — the size of the largest allowed ordinary bucket — so
// a hot bucket can't flood the pool; the unvisited remainder is
// deferred, to be drained after the probe loop only if the pool falls
// short of k.
func (ix *Index) gather(s *searcher, q []float64, bucket uint32) {
	lo, hi := ix.top.start[bucket], ix.top.start[bucket+1]
	if lo == hi {
		return
	}
	if len(ix.subs) == 0 || ix.subOf[bucket] < 0 {
		s.take(ix.order[lo:hi])
		return
	}
	st := &ix.subs[ix.subOf[bucket]]
	taken := 0
	s.visited = s.visited[:0]
	s.sub.walk(st, q,
		func(int) bool { return taken < ix.subBudget },
		func(c uint32) {
			slo, shi := lo+st.start[c], lo+st.start[c+1]
			if slo == shi {
				return
			}
			s.take(ix.order[slo:shi])
			taken += int(shi - slo)
			s.visited = append(s.visited, slo, shi)
		})
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

// walker is one hash level's multi-probe scratch: a query's centered
// projections, their margins, the bit positions by ascending margin and
// the pending perturbation sets.
type walker struct {
	z, abs []float64
	perm   []int
	heap   probeHeap
}

// walk visits t's buckets in multi-probe order (Lv et al.): the query's
// own bucket, then perturbation sets popped cheapest-first, each pop
// seeding its shift and expand successors, so every non-empty set is
// generated exactly once. It stops when more(probed) turns false after
// probed buckets, or when every bucket is visited.
func (w *walker) walk(t *table, q []float64, more func(probed int) bool, visit func(bucket uint32)) {
	nbits := t.bits
	w.z = resize(w.z, nbits)
	w.abs = resize(w.abs, nbits)
	code := t.project(q, w.z)
	for j, v := range w.z {
		w.abs[j] = math.Abs(v)
	}
	// Sort bit positions by ascending margin (ties by lower position):
	// flipping a near-zero projection is the cheapest perturbation.
	// Insertion sort — nbits ≤ MaxBits.
	w.perm = resize(w.perm, nbits)
	for j := range w.perm {
		w.perm[j] = j
	}
	for i := 1; i < nbits; i++ {
		p := w.perm[i]
		j := i
		for j > 0 && w.abs[p] < w.abs[w.perm[j-1]] {
			w.perm[j] = w.perm[j-1]
			j--
		}
		w.perm[j] = p
	}
	w.heap.reset()
	visit(code)
	w.heap.push(w.abs[w.perm[0]], 1)
	total := 1 << nbits
	for probed := 1; more(probed) && probed < total && w.heap.len() > 0; probed++ {
		cost, mask := w.heap.pop()
		var flip uint32
		for m := mask; m != 0; m &= m - 1 {
			flip |= 1 << uint(w.perm[bits.TrailingZeros32(m)])
		}
		visit(code ^ flip)
		if top := bits.Len32(mask) - 1; top+1 < nbits {
			mTop := w.abs[w.perm[top]]
			mNext := w.abs[w.perm[top+1]]
			w.heap.push(cost-mTop+mNext, mask&^(1<<uint(top))|1<<uint(top+1)) // shift
			w.heap.push(cost+mNext, mask|1<<uint(top+1))                      // expand
		}
	}
}

// probeHeap is a binary min-heap of pending perturbation sets, ordered
// by (cost, mask): cost is the summed margin of the flipped bits, the
// mask identifies the set over margin-sorted positions and breaks cost
// ties deterministically.
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

// resize returns a slice of exactly n elements, reusing capacity.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
