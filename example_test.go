package htc_test

import (
	"fmt"
	"os"
	"path/filepath"

	htc "github.com/htc-align/htc"
)

// Example demonstrates the core workflow: align an attributed graph with a
// relabelled copy of itself and read back the hidden permutation.
func Example() {
	// Two triangles joined by a bridge; attributes distinguish the sides.
	b := htc.NewBuilder(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 3}} {
		b.AddEdge(e[0], e[1])
	}
	attrs := htc.NewMatrix(6, 2)
	for i := 0; i < 6; i++ {
		attrs.Set(i, 0, float64(i)/6)
		attrs.Set(i, 1, float64(i%2))
	}
	gs := b.Build().WithAttrs(attrs)

	perm := htc.Permutation(6, 3)
	gt := htc.Relabel(gs, perm)

	res, err := htc.Align(gs, gt, htc.Config{K: 4, Hidden: 8, Embed: 4, Epochs: 40, M: 2, Seed: 1})
	if err != nil {
		panic(err)
	}
	correct := 0
	for s, t := range res.Predict() {
		if t == perm[s] {
			correct++
		}
	}
	fmt.Printf("recovered %d/6 hidden anchors\n", correct)
	// Output: recovered 6/6 hidden anchors
}

// ExamplePrepared demonstrates the staged API: prepare a pair once, then
// align several configurations over it. The expensive config-independent
// stages (orbit counting, Laplacian construction) run once and every
// result is bit-identical to its one-shot equivalent; a progress observer
// watches the stages as they run.
func ExamplePrepared() {
	b := htc.NewBuilder(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 3}} {
		b.AddEdge(e[0], e[1])
	}
	attrs := htc.NewMatrix(6, 2)
	for i := 0; i < 6; i++ {
		attrs.Set(i, 0, float64(i)/6)
		attrs.Set(i, 1, float64(i%2))
	}
	gs := b.Build().WithAttrs(attrs)
	gt := htc.Relabel(gs, htc.Permutation(6, 3))

	base := htc.Config{K: 4, Hidden: 8, Embed: 4, Epochs: 40, M: 2, Seed: 1}

	// Observe which stages actually run (in adjacent-deduplicated order).
	var stages []string
	observed := base
	observed.Progress = func(ev htc.Progress) {
		if len(stages) == 0 || stages[len(stages)-1] != ev.Stage {
			stages = append(stages, ev.Stage)
		}
	}

	p, err := htc.Prepare(gs, gt)
	if err != nil {
		panic(err)
	}
	// Sweep two variants over the shared artifacts; HTC-H reuses the
	// orbit counts and Laplacians HTC already built, so the observer sees
	// no further build stages.
	staged, err := p.Align(observed)
	if err != nil {
		panic(err)
	}
	high := base
	high.Variant = htc.VariantHighOrder
	if _, err := p.Align(high); err != nil {
		panic(err)
	}

	oneShot, err := htc.Align(gs, gt, base)
	if err != nil {
		panic(err)
	}
	stagedScores, oneShotScores := staged.Sim.Dense().Data, oneShot.Sim.Dense().Data
	identical := len(stagedScores) == len(oneShotScores)
	for i := range stagedScores {
		identical = identical && stagedScores[i] == oneShotScores[i]
	}
	stats := p.Stats()
	fmt.Println("stages observed:", stages)
	fmt.Printf("orbit-count runs across the sweep: %d\n", stats.OrbitCountRuns)
	fmt.Println("staged result identical to one-shot:", identical)
	// Output:
	// stages observed: [orbit_counts laplacians train fine_tune integrate]
	// orbit-count runs across the sweep: 1
	// staged result identical to one-shot: true
}

// ExampleAlign_topK demonstrates the top-k similarity backend for large
// graphs: Config.Similarity = SimilarityTopK bounds every similarity
// stage to CandidateK candidates per node (O(n·k) memory instead of the
// dense O(n²)), and the Result carries a sparse candidate structure
// instead of a dense matrix. With k ≥ the pair size the backend is
// bit-identical to dense, which this example verifies.
func ExampleAlign_topK() {
	b := htc.NewBuilder(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 3}} {
		b.AddEdge(e[0], e[1])
	}
	attrs := htc.NewMatrix(6, 2)
	for i := 0; i < 6; i++ {
		attrs.Set(i, 0, float64(i)/6)
		attrs.Set(i, 1, float64(i%2))
	}
	gs := b.Build().WithAttrs(attrs)
	perm := htc.Permutation(6, 3)
	gt := htc.Relabel(gs, perm)

	cfg := htc.Config{K: 4, Hidden: 8, Embed: 4, Epochs: 40, M: 2, Seed: 1}
	denseRes, err := htc.Align(gs, gt, cfg)
	if err != nil {
		panic(err)
	}

	cfg.Similarity = htc.SimilarityTopK
	cfg.CandidateK = 6 // k = n: exact; smaller k bounds memory instead
	topkRes, err := htc.Align(gs, gt, cfg)
	if err != nil {
		panic(err)
	}

	identical := true
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			got, ok := topkRes.Sim.At(i, j)
			identical = identical && ok && got == denseRes.Sim.Dense().At(i, j)
		}
	}
	correct := 0
	for s, t := range topkRes.Predict() {
		if t == perm[s] {
			correct++
		}
	}
	fmt.Println("backend:", topkRes.SimBackend)
	_, candidates := topkRes.Sim.(*htc.TopKSim)
	fmt.Println("scores held as a candidate list:", candidates)
	fmt.Println("scores identical to dense at k = n:", identical)
	fmt.Printf("recovered %d/6 hidden anchors\n", correct)
	// Output:
	// backend: topk
	// scores held as a candidate list: true
	// scores identical to dense at k = n: true
	// recovered 6/6 hidden anchors
}

// ExampleAlign_ann demonstrates the approximate candidate backend:
// Config.Similarity = SimilarityANN generates each node's candidate list
// through an LSH index instead of the exact O(ns·nt) scan, so candidate
// generation scales sub-quadratically with graph size. AnnBits sizes the
// hash table and AnnProbes its per-query search effort; with AnnProbes ≥
// 2^AnnBits every bucket is probed and the run is bit-identical to the
// exact top-k backend — the escape hatch this example verifies.
func ExampleAlign_ann() {
	b := htc.NewBuilder(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 3}} {
		b.AddEdge(e[0], e[1])
	}
	attrs := htc.NewMatrix(6, 2)
	for i := 0; i < 6; i++ {
		attrs.Set(i, 0, float64(i)/6)
		attrs.Set(i, 1, float64(i%2))
	}
	gs := b.Build().WithAttrs(attrs)
	perm := htc.Permutation(6, 3)
	gt := htc.Relabel(gs, perm)

	cfg := htc.Config{K: 4, Hidden: 8, Embed: 4, Epochs: 40, M: 2, Seed: 1}
	cfg.Similarity = htc.SimilarityTopK
	cfg.CandidateK = 4
	topkRes, err := htc.Align(gs, gt, cfg)
	if err != nil {
		panic(err)
	}

	cfg.Similarity = htc.SimilarityANN
	cfg.AnnBits = 3
	cfg.AnnProbes = 8 // 2^3: probe every bucket — exact
	annRes, err := htc.Align(gs, gt, cfg)
	if err != nil {
		panic(err)
	}

	identical := true
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			want, wok := topkRes.Sim.At(i, j)
			got, gok := annRes.Sim.At(i, j)
			identical = identical && wok == gok && got == want
		}
	}
	correct := 0
	for s, t := range annRes.Predict() {
		if t == perm[s] {
			correct++
		}
	}
	fmt.Println("backend:", annRes.SimBackend)
	fmt.Printf("resolved LSH index: %d bits, %d probes\n", annRes.AnnBits, annRes.AnnProbes)
	fmt.Println("scores identical to exact top-k at full probes:", identical)
	fmt.Printf("recovered %d/6 hidden anchors\n", correct)
	// Output:
	// backend: ann
	// resolved LSH index: 3 bits, 8 probes
	// scores identical to exact top-k at full probes: true
	// recovered 6/6 hidden anchors
}

// ExampleAlign_f32 demonstrates the float32 compute tier:
// Config.Precision = PrecisionF32 rounds the fine-tune loop's candidate
// generation to float32 — the embedding copies and every score — while
// accumulating in float64, so rankings stay stable. Training always
// stays float64, and the tier requires a candidate backend — the dense
// path has no float32 tier. Left on PrecisionAuto, the tier flips to f32
// automatically on pairs large enough to select the ANN backend.
func ExampleAlign_f32() {
	b := htc.NewBuilder(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 3}} {
		b.AddEdge(e[0], e[1])
	}
	attrs := htc.NewMatrix(6, 2)
	for i := 0; i < 6; i++ {
		attrs.Set(i, 0, float64(i)/6)
		attrs.Set(i, 1, float64(i%2))
	}
	gs := b.Build().WithAttrs(attrs)
	perm := htc.Permutation(6, 3)
	gt := htc.Relabel(gs, perm)

	cfg := htc.Config{K: 4, Hidden: 8, Embed: 4, Epochs: 40, M: 2, Seed: 1}
	cfg.Similarity = htc.SimilarityTopK
	cfg.CandidateK = 4
	cfg.Precision = htc.PrecisionF32
	res, err := htc.Align(gs, gt, cfg)
	if err != nil {
		panic(err)
	}

	correct := 0
	for s, t := range res.Predict() {
		if t == perm[s] {
			correct++
		}
	}
	fmt.Println("backend:", res.SimBackend)
	fmt.Println("precision:", res.Precision)
	fmt.Printf("recovered %d/6 hidden anchors\n", correct)
	// Output:
	// backend: topk
	// precision: f32
	// recovered 6/6 hidden anchors
}

// ExampleCountEdgeOrbits shows the raw higher-order signal HTC builds on:
// the two edges of the paper's Fig. 5 example are indistinguishable by
// plain adjacency (orbit 0) but differ on orbits 1 and 4.
// ExampleLoadPair aligns a SNAP-style edge-list pair end to end: load
// both files (format sniffed by content), resolve ID-keyed ground truth
// through the returned NodeMaps, align, and read predictions back by
// node name.
func ExampleLoadPair() {
	dir, err := os.MkdirTemp("", "htc-loadpair")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	// Two copies of the same 10-node network, keyed by different ids.
	write := func(name, data string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			panic(err)
		}
		return path
	}
	src := write("source.edges",
		"a b\na c\nb c\nc d\nd e\ne f\nf g\ng h\nh i\ni j\nd g\nb e\n")
	tgt := write("target.edges",
		"x2 x1\nx1 x3\nx2 x3\nx3 x4\nx4 x5\nx5 x6\nx6 x7\nx7 x8\nx8 x9\nx9 x10\nx4 x7\nx2 x5\n")
	anchors := write("truth.tsv",
		"a x1\nb x2\nc x3\nd x4\ne x5\nf x6\ng x7\nh x8\ni x9\nj x10\n")

	pair, err := htc.LoadPair(src, tgt, htc.LoadOptions{})
	if err != nil {
		panic(err)
	}
	truth, err := htc.LoadTruthFile(anchors, pair.SourceIDs, pair.TargetIDs)
	if err != nil {
		panic(err)
	}
	res, err := htc.Align(pair.Source, pair.Target, htc.Config{K: 4, Hidden: 8, Embed: 4, Epochs: 20, M: 5, Seed: 1})
	if err != nil {
		panic(err)
	}
	rep := htc.EvaluateSim(res.Sim, truth, 1)
	fmt.Printf("source format: %s, %d anchors, hits@1 %.2f\n",
		pair.SourceFormat, rep.Anchors, rep.PrecisionAt[1])
	for _, p := range res.PredictNames(pair.SourceIDs, pair.TargetIDs)[:3] {
		fmt.Printf("%s -> %s\n", p[0], p[1])
	}
	// Output:
	// source format: edgelist, 10 anchors, hits@1 1.00
	// a -> x1
	// b -> x2
	// c -> x3
}

func ExampleCountEdgeOrbits() {
	b := htc.NewBuilder(5)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {1, 3}, {2, 4}} {
		b.AddEdge(e[0], e[1])
	}
	g := b.Build()
	counts := htc.CountEdgeOrbits(g)
	idx := map[[2]int32]int{}
	for i, e := range g.Edges() {
		idx[e] = i
	}
	ab := counts[idx[[2]int32{0, 1}]]
	bc := counts[idx[[2]int32{1, 2}]]
	fmt.Println("edge (a,b) first five orbits:", ab[:5])
	fmt.Println("edge (b,c) first five orbits:", bc[:5])
	// Output:
	// edge (a,b) first five orbits: [1 1 1 0 0]
	// edge (b,c) first five orbits: [1 2 1 0 1]
}

// ExampleRefine demonstrates RefiNA refinement of an externally computed
// matching. Two nodes of a ten-node network — a degree-3 hub and the
// degree-1 tail — are swapped in an otherwise perfect matching; the swap
// is structurally inconsistent, so a few refinement iterations repair it
// without any training. The same stage runs inside the pipeline when
// Config.RefineIters > 0.
func ExampleRefine() {
	b := htc.NewBuilder(10)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 8}, {8, 9}, {3, 6}, {1, 4}} {
		b.AddEdge(e[0], e[1])
	}
	g := b.Build()

	match := []int{0, 1, 2, 3, 4, 5, 9, 7, 8, 6} // nodes 6 and 9 swapped
	fmt.Printf("input mnc %.2f\n", htc.MNC(match, g, g, 1))

	sim, err := htc.MatchingSim(match, g.N(), 8)
	if err != nil {
		panic(err)
	}
	res, err := htc.Refine(sim, g, g, htc.RefineOptions{Iters: 5, Workers: 1})
	if err != nil {
		panic(err)
	}
	correct := 0
	for i, t := range htc.GreedyMatchSim(res.Sim) {
		if t == i {
			correct++
		}
	}
	fmt.Printf("refined mnc %.2f, %d/10 correct\n", res.MNC[len(res.MNC)-1], correct)
	// Output:
	// input mnc 0.55
	// refined mnc 1.00, 10/10 correct
}

// ExampleHungarianMatch extracts a one-to-one assignment where greedy
// matching fails.
func ExampleHungarianMatch() {
	scores := htc.MatrixFromRows([][]float64{
		{10, 9},
		{9, 1},
	})
	fmt.Println(htc.HungarianMatch(scores)) // optimal 9+9, not greedy 10+1
	// Output: [1 0]
}
