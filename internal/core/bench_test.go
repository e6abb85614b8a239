package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/htc-align/htc/internal/align"
	"github.com/htc-align/htc/internal/ann"
	"github.com/htc-align/htc/internal/dense"
	"github.com/htc-align/htc/internal/graph"
	"github.com/htc-align/htc/internal/ingest"
	"github.com/htc-align/htc/internal/refine"
)

// benchConfig is the end-to-end benchmark workload: large enough that
// every stage (orbit counting, training, fine-tuning, integration) shows
// up, small enough that -benchtime=1x stays CI-sized.
func benchConfig(v Variant, workers int) Config {
	return Config{
		Variant: v, K: 8, Hidden: 32, Embed: 16,
		Epochs: 15, M: 10, Seed: 1, Workers: workers,
	}
}

// BenchmarkAlign measures the whole pipeline per variant, once with a
// single worker (the serial baseline) and once with the full machine
// (workers=max, i.e. Config.Workers = 0). The workers=1 / workers=max
// ratio is the headline speedup of the parallel execution engine;
// scripts/bench_snapshot.sh records both series in BENCH_pipeline.json.
func BenchmarkAlign(b *testing.B) {
	gs, gt, _ := noisyPair(130, 0.1, 7)
	for _, v := range Variants() {
		for _, w := range []struct {
			label   string
			workers int
		}{{"1", 1}, {"max", 0}} {
			b.Run(fmt.Sprintf("%s/workers=%s", v, w.label), func(b *testing.B) {
				cfg := benchConfig(v, w.workers)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Align(gs, gt, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// densePair builds a denser benchmark pair than noisyPair: on dense
// graphs the orbit-counting stage dominates end-to-end cost, matching the
// regime of the paper's Fig. 8 — exactly where the staged API's artifact
// reuse pays.
func densePair(n int, seed int64) (*graph.Graph, *graph.Graph) {
	rng := rand.New(rand.NewSource(seed))
	gs := graph.ErdosRenyi(n, 0.3, rng)
	x := dense.New(n, 6)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	gs = gs.WithAttrs(x)
	b := graph.NewBuilder(n)
	for _, e := range gs.Edges() {
		if rng.Float64() >= 0.1 {
			b.AddEdge(int(e[0]), int(e[1]))
		}
	}
	return gs, b.Build().WithAttrs(x.Clone())
}

// sweepConfigs is a Table-III style 5-config roster over the orbit-based
// family: every entry shares the single orbit-counting pass, and all but
// the binary ablation share one set of Laplacians.
func sweepConfigs() []Config {
	base := Config{Variant: Full, K: 8, Hidden: 24, Embed: 12, Epochs: 8, M: 10, Seed: 1}
	high := base
	high.Variant = HighOrder
	binary := base
	binary.Binary = true
	reseeded := base
	reseeded.Seed = 2
	narrow := base
	narrow.M = 5
	return []Config{base, high, binary, reseeded, narrow}
}

// BenchmarkPrepareReuse measures the staged API's headline win: a
// 5-config sweep over one pair, run cold (5 one-shot Aligns, each paying
// stages 1–2) vs staged (1 Prepare + 5 Prepared.Aligns over shared
// artifacts). The reuse series must undercut cold by well over 2× — the
// snapshot in BENCH_pipeline.json and scripts/bench_check.sh gate it.
func BenchmarkPrepareReuse(b *testing.B) {
	gs, gt := densePair(200, 9)
	cfgs := sweepConfigs()
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, cfg := range cfgs {
				if _, err := Align(gs, gt, cfg); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("reuse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p, err := Prepare(gs, gt, cfgs[0])
			if err != nil {
				b.Fatal(err)
			}
			for _, cfg := range cfgs {
				if _, err := p.Align(cfg); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// sparsePair builds a large, realistically sparse benchmark pair (mean
// degree ≈ 8): the regime where the dense ns×nt similarity stages — not
// orbit counting — are the scaling wall the top-k backend removes.
func sparsePair(n int, seed int64) (*graph.Graph, *graph.Graph) {
	rng := rand.New(rand.NewSource(seed))
	gs := graph.ErdosRenyi(n, 8/float64(n), rng)
	x := dense.New(n, 6)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	gs = gs.WithAttrs(x)
	b := graph.NewBuilder(n)
	for _, e := range gs.Edges() {
		if rng.Float64() >= 0.05 {
			b.AddEdge(int(e[0]), int(e[1]))
		}
	}
	return gs, b.Build().WithAttrs(x.Clone())
}

// topkBenchConfig is the end-to-end workload of the memory benchmark:
// the fine-tuning ablation (orbit 0 only, so similarity work dominates
// instead of orbit counting) with a small candidate budget. Workers is
// pinned to 1 because this benchmark's B/op series is CI-gated: the
// top-k block scratch is allocated per worker, so a GOMAXPROCS-sized
// fan-out would make the measurement grow with the host's core count
// and trip the allocated-bytes gate against a baseline from another
// machine.
func topkBenchConfig(n int) Config {
	cfg := Config{
		Variant: LowOrderFT, Hidden: 16, Embed: 8,
		Epochs: 6, M: 10, MaxFineTuneIters: 3, Seed: 1, Workers: 1,
	}
	if n > 0 {
		cfg.Similarity = SimTopK
		cfg.CandidateK = 16
	} else {
		cfg.Similarity = SimDense
	}
	return cfg
}

// BenchmarkAlignTopKLarge is the memory proof of the top-k similarity
// backend: an end-to-end align of a 5000×5000 pair — 5× beyond the
// dense/n=1000 reference series, and past the point where the dense
// path's working set (≥ 4 buffers × n² × 8 B ≈ 800 MB at n = 5000,
// reallocated per fine-tune iteration) stops being CI-viable — completes
// with allocations bounded by O(n·k) candidate structures instead of
// O(n²) matrices. scripts/bench_snapshot.sh records B/op and allocs/op
// into BENCH_pipeline.json and scripts/bench_check.sh gates both, so a
// reintroduced dense materialisation on this path fails CI as an
// allocated-bytes regression.
func BenchmarkAlignTopKLarge(b *testing.B) {
	for _, bench := range []struct {
		name string
		n    int
		cfg  Config
	}{
		{"dense/n=1000", 1000, topkBenchConfig(0)},
		{"topk/n=5000", 5000, topkBenchConfig(5000)},
	} {
		gs, gt := sparsePair(bench.n, 11)
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Align(gs, gt, bench.cfg)
				if err != nil {
					b.Fatal(err)
				}
				if want := bench.cfg.Similarity.String(); res.SimBackend != want {
					b.Fatalf("ran %s, want %s", res.SimBackend, want)
				}
			}
		})
	}
}

// skewedEmbeddingPair fabricates the adversarial input of the skew
// benchmark: GCN-collapse-shaped embeddings where every row is
// ±√(1−ρ²)·v along one shared dominant direction v plus a ρ-scaled unit
// residual from a rank-r subspace orthogonal to v. Raw SRP hashing of
// such rows degenerates — the sign pattern of v pins most code bits, so
// rows pile into a handful of hot buckets — while the ranking signal
// lives entirely in the residuals.
func skewedEmbeddingPair(n, d, r int, rho float64, seed int64) (*dense.Matrix, *dense.Matrix) {
	rng := rand.New(rand.NewSource(seed))
	basis := make([][]float64, r+1)
	for bi := range basis {
		u := make([]float64, d)
		for j := range u {
			u[j] = rng.NormFloat64()
		}
		for _, prev := range basis[:bi] {
			var p float64
			for j := range u {
				p += u[j] * prev[j]
			}
			for j := range u {
				u[j] -= p * prev[j]
			}
		}
		var nrm float64
		for _, x := range u {
			nrm += x * x
		}
		nrm = 1 / math.Sqrt(nrm)
		for j := range u {
			u[j] *= nrm
		}
		basis[bi] = u
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
			var nw float64
			for l := range w {
				w[l] = rng.NormFloat64()
				nw += w[l] * w[l]
			}
			nw = 1 / math.Sqrt(nw)
			row := m.Row(i)
			for j := range row {
				row[j] = c * v[j]
				for l, u := range basis[1:] {
					row[j] += rho * w[l] * nw * u[j]
				}
			}
		}
		return m
	}
	return gen(n), gen(n)
}

// BenchmarkAnnSkewAdversarial is the skew gate: candidate generation
// over collapse-skewed embeddings, once with the data-aware balanced
// hash (whitened projections, hot-bucket re-hash) and once with it
// disabled, at equal bits/probes. The mean re-rank pool per query —
// reported as pool-rows/op and snapshotted into BENCH_pipeline.json —
// is the series scripts/bench_check.sh gates: the balanced index must
// keep it ≥ 5× below the unbalanced one (see the ann and align skew
// tests for the in-tree assertion of the same property, plus recall).
func BenchmarkAnnSkewAdversarial(b *testing.B) {
	hs, ht := skewedEmbeddingPair(10_000, 16, 4, 0.2, 17)
	for _, bench := range []struct {
		name       string
		unbalanced bool
	}{
		{"balanced", false},
		{"unbalanced", true},
	} {
		p := ann.Params{Bits: 12, Probes: 48, Seed: 19, Unbalanced: bench.unbalanced}
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			var pool float64
			for i := 0; i < b.N; i++ {
				_, st := align.ANNCandidatesStats(hs, ht, 16, p, 1)
				pool = st.PoolRowsMean()
			}
			b.ReportMetric(pool, "pool-rows/op")
		})
	}
}

// edgeListText generates a SNAP-style edge-list pair as in-memory text:
// n named nodes with ≈ 4 random neighbours each for the source, the same
// network with 5% of edges dropped for the target. The text round-trips
// through the ingestion layer so the benchmark covers the real entry
// path for huge graphs — parse, intern string ids, build — not just the
// numeric pipeline.
func edgeListText(n int, seed int64) (src, tgt string) {
	rng := rand.New(rand.NewSource(seed))
	var sb, tb strings.Builder
	sb.Grow(n * 48)
	tb.Grow(n * 48)
	// Preferential attachment: each new node links 4 times to endpoints
	// of existing edges (probability ∝ degree), yielding the heavy-tailed
	// degree distribution of real networks. That matters beyond realism —
	// on degree-uniform random graphs GCN embeddings collapse towards one
	// dominant direction and any bucketing of them degenerates, which
	// would make this benchmark measure a pathology instead of the
	// intended workload.
	ends := make([]int32, 0, 8*n)
	ends = append(ends, 0)
	for i := 1; i < n; i++ {
		for d := 0; d < 4; d++ {
			j := int(ends[rng.Intn(len(ends))])
			if j == i {
				continue
			}
			fmt.Fprintf(&sb, "v%d v%d\n", i, j)
			ends = append(ends, int32(i), int32(j))
			if rng.Float64() >= 0.05 {
				fmt.Fprintf(&tb, "v%d v%d\n", i, j)
			}
		}
	}
	return sb.String(), tb.String()
}

// idAttrs joins d-dimensional node features onto an ingested graph by
// node id — the standard shape of real pipelines: edge lists never carry
// features, so attributes arrive keyed by name from a second source.
// Deriving them deterministically from the id hash gives both sides of a
// pair consistent features without shipping a second artefact. The
// gaussians come from an allocation-free splitmix64 + Box–Muller stream
// rather than a per-node math/rand source: the latter's ~5 KB state
// array, times 2·100k nodes, used to put ≈ 1 GB of fixture noise into
// the 100K benchmark's allocated-bytes series and drown the signal the
// gate watches.
func idAttrs(nodes *ingest.NodeMap, d int) *dense.Matrix {
	x := dense.New(nodes.Len(), d)
	for i := 0; i < nodes.Len(); i++ {
		id := nodes.ID(i)
		s := uint64(fnvOffset)
		for j := 0; j < len(id); j++ {
			s = (s ^ uint64(id[j])) * fnvPrime
		}
		next := func() float64 {
			s += 0x9e3779b97f4a7c15
			z := s
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			return (float64((z^(z>>31))>>11) + 0.5) / (1 << 53)
		}
		for c := 0; c < d; c += 2 {
			r := math.Sqrt(-2 * math.Log(next()))
			theta := 2 * math.Pi * next()
			x.Data[i*d+c] = r * math.Cos(theta)
			if c+1 < d {
				x.Data[i*d+c+1] = r * math.Sin(theta)
			}
		}
	}
	return x
}

// FNV-1a parameters, inlined so the hot loop hashes without a heap
// handle per node.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// BenchmarkAlignAnnIngested100K is the scale proof of the ANN similarity
// backend: ingest a 100 000-node edge-list pair, join id-keyed node
// features, and align end to end with Similarity = ann. At this size the
// dense backend is out of the question (one ns×nt float64 buffer is
// 80 GB) and the exact top-k scan pays 10¹⁰ dot products per fine-tune
// direction; the LSH index (13 bits, 208 probes, auto-resolved) is the
// only backend that completes in CI time. Ingestion runs in the setup
// (the entry path is still exercised end to end, and has its own gated
// benchmarks in BENCH_io.json); the measured region is the alignment,
// so the time and allocated-bytes series attribute to the pipeline
// instead of to parsing fixtures. The workload runs once per precision
// tier — auto would resolve f32 at this size, so both tiers are pinned
// explicitly and the f64 series is the reference the f32 series is
// gated against within the same snapshot (see bench_check.sh: the f32
// tier must allocate ≤ 0.97× of f64 in the fine-tune stage and never
// more than f64 overall; wall-clock is not gated across tiers — at
// this embedding width the conversion cost and the bandwidth saving
// are close, and the measured ratio swings with host load). Workers is
// pinned to 1 for the same B/op-gate reason as topkBenchConfig; the
// snapshot in BENCH_pipeline.json gates time and allocated bytes, so a
// regression to quadratic candidate generation fails CI on both series.
func BenchmarkAlignAnnIngested100K(b *testing.B) {
	src, tgt := edgeListText(100_000, 13)
	ls, err := ingest.Load(strings.NewReader(src), ingest.Options{})
	if err != nil {
		b.Fatal(err)
	}
	lt, err := ingest.Load(strings.NewReader(tgt), ingest.Options{})
	if err != nil {
		b.Fatal(err)
	}
	gs := ls.Graph.WithAttrs(idAttrs(ls.Nodes, 6))
	gt := lt.Graph.WithAttrs(idAttrs(lt.Nodes, 6))
	for _, tier := range []struct {
		name string
		prec Precision
	}{{"f64", PrecisionF64}, {"f32", PrecisionF32}} {
		cfg := Config{
			Variant: LowOrderFT, Hidden: 16, Embed: 8,
			Epochs: 4, M: 10, MaxFineTuneIters: 2, Seed: 1, Workers: 1,
			Similarity: SimANN, Precision: tier.prec,
		}
		b.Run(tier.name, func(b *testing.B) {
			b.ReportAllocs()
			var st AnnStats
			var ft uint64
			for i := 0; i < b.N; i++ {
				res, err := Align(gs, gt, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.SimBackend != "ann" || res.Precision != tier.name {
					b.Fatalf("ran %s/%s, want ann/%s", res.SimBackend, res.Precision, tier.name)
				}
				st = *res.Ann
				ft = res.Timings.FineTuningBytes
			}
			// The mean re-rank pool is the work-per-query series the
			// snapshot gates; the fine-tune stage's allocated-bytes delta
			// is the span the precision tier owns, recorded so the
			// snapshot trajectory shows where the f32 tier moves memory.
			b.ReportMetric(st.PoolRowsMean, "pool-rows/op")
			b.ReportMetric(float64(ft), "finetune-bytes/op")
		})
	}
}

// BenchmarkRefine measures the RefiNA refinement stage on both Sim
// families: a dense 1000×1000 matrix (the full-matrix update) and the
// candidate lists of an ingested 100 000-node pair (the sparse path — a
// dense representation at that size would be an 80 GB buffer, so the
// gated B/op series doubles as the no-materialisation proof: refinement
// must stay O(n·k·deg)). Setup builds the input similarity synthetically
// — a noisy score matrix for the dense case, a name-keyed matching
// lifted through refine.FromMatching for the ingested case — so the
// measured region is refinement alone, not a pipeline run. Workers is
// pinned to 1 for the same B/op-gate reason as topkBenchConfig; the
// snapshot in BENCH_pipeline.json gates time and allocated bytes on
// both series.
func BenchmarkRefine(b *testing.B) {
	b.Run("dense/n=1000", func(b *testing.B) {
		const n = 1000
		gs, gt := sparsePair(n, 11)
		rng := rand.New(rand.NewSource(3))
		m := dense.New(n, n)
		for i := range m.Data {
			m.Data[i] = rng.Float64()
		}
		for i := 0; i < n; i++ {
			m.Set(i, i, 1.5) // true match on the diagonal, noise elsewhere
		}
		opts := refine.Options{Iters: 3, Workers: 1}
		b.ReportAllocs()
		b.ResetTimer()
		var mnc float64
		for i := 0; i < b.N; i++ {
			res, err := refine.Refine(align.DenseSim{M: m}, gs, gt, opts)
			if err != nil {
				b.Fatal(err)
			}
			mnc = res.MNC[len(res.MNC)-1]
		}
		b.ReportMetric(mnc, "mnc/op")
	})
	b.Run("candidates/n=100000", func(b *testing.B) {
		src, tgt := edgeListText(100_000, 13)
		ls, err := ingest.Load(strings.NewReader(src), ingest.Options{})
		if err != nil {
			b.Fatal(err)
		}
		lt, err := ingest.Load(strings.NewReader(tgt), ingest.Options{})
		if err != nil {
			b.Fatal(err)
		}
		match := make([]int, ls.Graph.N())
		for i := range match {
			t, ok := lt.Nodes.Index(ls.Nodes.ID(i))
			if !ok {
				t = -1
			}
			match[i] = t
		}
		sim, err := refine.FromMatching(match, lt.Graph.N(), 16)
		if err != nil {
			b.Fatal(err)
		}
		opts := refine.Options{Iters: 2, Workers: 1}
		b.ReportAllocs()
		b.ResetTimer()
		var mnc float64
		for i := 0; i < b.N; i++ {
			res, err := refine.Refine(sim, ls.Graph, lt.Graph, opts)
			if err != nil {
				b.Fatal(err)
			}
			mnc = res.MNC[len(res.MNC)-1]
		}
		b.ReportMetric(mnc, "mnc/op")
	})
}

// BenchmarkAlignLarge is the scaling probe: one heavier orbit-variant run
// per worker setting, for eyeballing how the fan-out behaves beyond toy
// sizes. Excluded from the snapshot's regression gate (it is noisier).
func BenchmarkAlignLarge(b *testing.B) {
	gs, gt, _ := noisyPair(300, 0.1, 8)
	for _, w := range []struct {
		label   string
		workers int
	}{{"1", 1}, {"max", 0}} {
		b.Run("HTC/workers="+w.label, func(b *testing.B) {
			cfg := benchConfig(Full, w.workers)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Align(gs, gt, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
