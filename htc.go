// Package htc is the public API of the HTC network-alignment library, a
// from-scratch Go reproduction of "Towards Higher-order Topological
// Consistency for Unsupervised Network Alignment" (Sun et al., ICDE 2023).
//
// HTC aligns two attributed networks without any labelled anchor links.
// Its central idea is to replace the usual edge-indiscriminative
// ("low-order") topological consistency assumption with a higher-order one
// defined on the 13 edge orbits of 2–4-node graphlets, injected into the
// aggregation of a shared-weight GCN autoencoder, refined with
// trusted-pair fine-tuning and integrated across orbits by posterior
// importance weights.
//
// Quick start:
//
//	b := htc.NewBuilder(4)
//	b.AddEdge(0, 1)
//	// ... add edges, Build() both graphs ...
//	res, err := htc.Align(gs, gt, htc.Config{})
//	pred := res.Predict() // pred[i] = most likely anchor of source node i
//
// The package re-exports the supporting machinery a downstream user needs:
// graph construction and IO, the dataset simulators used in the paper's
// evaluation, the six baseline aligners, the evaluation metrics, and the
// raw edge-orbit counter.
package htc

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"github.com/htc-align/htc/internal/align"
	"github.com/htc-align/htc/internal/baselines"
	"github.com/htc-align/htc/internal/core"
	"github.com/htc-align/htc/internal/datasets"
	"github.com/htc-align/htc/internal/dense"
	"github.com/htc-align/htc/internal/graph"
	"github.com/htc-align/htc/internal/ingest"
	"github.com/htc-align/htc/internal/metrics"
	"github.com/htc-align/htc/internal/orbit"
	"github.com/htc-align/htc/internal/refine"
)

// Graph is an immutable undirected attributed network.
type Graph = graph.Graph

// Builder incrementally constructs a Graph.
type Builder = graph.Builder

// Matrix is the dense matrix type used for attributes and alignment
// scores.
type Matrix = dense.Matrix

// Config holds the HTC pipeline hyperparameters; the zero value selects
// the paper's defaults.
type Config = core.Config

// ParseConfig decodes a pipeline configuration exactly as the alignment
// server decodes the "config" of a request body: arg is the JSON document
// itself, or "@path" to read it from a file, and "" is the zero Config
// (every default). An unknown field, a value its field rejects
// ("similarity":"bogus") and any data after the document are errors.
func ParseConfig(arg string) (Config, error) {
	var cfg Config
	if arg == "" {
		return cfg, nil
	}
	doc := []byte(arg)
	if path, ok := strings.CutPrefix(arg, "@"); ok {
		var err error
		if doc, err = os.ReadFile(path); err != nil {
			return cfg, fmt.Errorf("config: %w", err)
		}
	}
	if err := ingest.DecodeStrict(bytes.NewReader(doc), &cfg); err != nil {
		var trailing *ingest.TrailingDataError
		if errors.As(err, &trailing) {
			return Config{}, errors.New("config: trailing data after the JSON document")
		}
		return Config{}, fmt.Errorf("config: %w", err)
	}
	return cfg, nil
}

// Result is the outcome of an alignment run.
type Result = core.Result

// AnnStats is the skew-observability block of an ANN-backed Result:
// hash balance and per-query pool work.
type AnnStats = core.AnnStats

// Variant selects an ablation of the pipeline (Table III).
type Variant = core.Variant

// StageTimings decomposes a run's wall-clock cost (Fig. 8).
type StageTimings = core.StageTimings

// Sim is the similarity-representation abstraction: the final alignment
// scores of a Result, either a full dense matrix or a memory-bounded
// per-node candidate list (see Config.Similarity).
type Sim = align.Sim

// DenseSim adapts a dense score matrix to the Sim interface.
type DenseSim = align.DenseSim

// TopKSim is the sparse Sim: per source node, its top candidate targets
// with scores, O(n·k) memory instead of O(n²).
type TopKSim = align.TopKSim

// Candidates is the underlying per-node candidate structure of a TopKSim.
type Candidates = align.Candidates

// SimBackend selects the similarity representation of a run.
type SimBackend = core.SimBackend

// The similarity backends of Config.Similarity.
const (
	// SimilarityAuto (the default) uses dense matrices on small pairs
	// and the top-k candidate backend beyond ~4096×4096 score cells.
	SimilarityAuto = core.SimAuto
	// SimilarityDense always materialises full ns×nt score matrices.
	SimilarityDense = core.SimDense
	// SimilarityTopK bounds every similarity stage to Config.CandidateK
	// candidates per node; bit-identical to dense when k ≥ max(ns, nt).
	SimilarityTopK = core.SimTopK
	// SimilarityANN keeps the top-k representation but generates the
	// candidate lists through an LSH index (sub-quadratic compute) —
	// tuned by Config.AnnBits/AnnProbes, and bit-identical to
	// SimilarityTopK when AnnProbes ≥ 2^AnnBits.
	SimilarityANN = core.SimANN
)

// ParseSimBackend resolves a backend name ("auto", "dense", "topk",
// "ann", case-insensitive) into a SimBackend.
func ParseSimBackend(s string) (SimBackend, error) { return core.ParseSimBackend(s) }

// Precision selects the compute tier of the fine-tune similarity stage
// (Config.Precision). Training always runs float64.
type Precision = core.Precision

// The compute tiers of Config.Precision.
const (
	// PrecisionAuto (the default) keeps float64 on small pairs and flips
	// to float32 past the same size threshold that selects the ANN
	// backend, where memory traffic dominates.
	PrecisionAuto = core.PrecisionAuto
	// PrecisionF64 forces the exact float64 tier everywhere.
	PrecisionF64 = core.PrecisionF64
	// PrecisionF32 runs the candidate-generation kernels on float32
	// storage with float64 accumulators — roughly half the similarity
	// memory traffic. Requires a candidate backend (topk or ann): the
	// dense backend has no float32 tier.
	PrecisionF32 = core.PrecisionF32
)

// ParsePrecision resolves a precision name ("auto", "f64", "f32" and
// common synonyms, case-insensitive) into a Precision.
func ParsePrecision(s string) (Precision, error) { return core.ParsePrecision(s) }

// OrbitOutcome reports one orbit's trusted pairs and importance weight.
type OrbitOutcome = core.OrbitOutcome

// The pipeline variants of the paper's ablation study.
const (
	// VariantFull is HTC: all orbits with trusted-pair fine-tuning.
	VariantFull = core.Full
	// VariantLowOrder is HTC-L: orbit 0 only, no fine-tuning.
	VariantLowOrder = core.LowOrder
	// VariantHighOrder is HTC-H: all orbits, no fine-tuning.
	VariantHighOrder = core.HighOrder
	// VariantLowOrderFT is HTC-LT: orbit 0 with fine-tuning.
	VariantLowOrderFT = core.LowOrderFT
	// VariantDiffusion is HTC-DT: diffusion matrices replace GOMs.
	VariantDiffusion = core.DiffusionFT
)

// ParseVariant resolves a paper name ("HTC", "HTC-L", "HTC-H", "HTC-LT",
// "HTC-DT", case-insensitive) into a Variant.
func ParseVariant(s string) (Variant, error) { return core.ParseVariant(s) }

// Truth is the (possibly partial) ground-truth anchor map used for
// evaluation: Truth[s] = target node, or −1.
type Truth = metrics.Truth

// Report holds precision@q and MRR scores.
type Report = metrics.Report

// Pair is a ready-to-align dataset with ground truth.
type Pair = datasets.Pair

// Stats is a Table-I style summary of one network.
type Stats = datasets.Stats

// Aligner is the interface every alignment method implements.
type Aligner = baselines.Aligner

// Anchor is one known source→target correspondence (supervision for the
// supervised baselines).
type Anchor = baselines.Anchor

// NumOrbits is the number of edge orbits on 2–4-node graphlets.
const NumOrbits = orbit.NumOrbits

// OrbitNames labels each orbit for reports.
var OrbitNames = orbit.Names

// ErrAttrMismatch reports incompatible attribute spaces between the two
// graphs passed to Align.
var ErrAttrMismatch = core.ErrAttrMismatch

// NewBuilder returns a builder for a graph on n nodes.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// NewMatrix returns a zeroed r×c matrix (for node attributes).
func NewMatrix(r, c int) *Matrix { return dense.New(r, c) }

// MatrixFromRows builds a matrix from a slice of equal-length rows.
func MatrixFromRows(rows [][]float64) *Matrix { return dense.FromRows(rows) }

// Permutation returns a random permutation of 0..n−1 — handy for building
// synthetic alignment problems with hidden identities.
func Permutation(n int, seed int64) []int {
	return graph.Permutation(n, rand.New(rand.NewSource(seed)))
}

// Relabel returns a copy of g whose node i has been renamed perm[i], with
// attributes moved along.
func Relabel(g *Graph, perm []int) *Graph { return graph.Relabel(g, perm) }

// Components labels the connected components of g and returns the
// per-node component ids plus the component count.
func Components(g *Graph) ([]int, int) { return graph.Components(g) }

// LargestComponent returns the node ids of g's largest connected
// component in increasing order.
func LargestComponent(g *Graph) []int { return graph.LargestComponent(g) }

// InducedSubgraph returns the subgraph induced on the given nodes and the
// mapping from new ids to original ids. Attributes are carried over.
func InducedSubgraph(g *Graph, nodes []int) (*Graph, []int) {
	return graph.InducedSubgraph(g, nodes)
}

// BFSDistances returns hop distances from start (−1 for unreachable).
func BFSDistances(g *Graph, start int) []int { return graph.BFSDistances(g, start) }

// Triangles counts the triangles of g, each once.
func Triangles(g *Graph) int { return graph.Triangles(g) }

// ReadGraph parses a graph from the library's text format.
func ReadGraph(r io.Reader) (*Graph, error) { return graph.Read(r) }

// WriteGraph serialises a graph in the library's text format.
func WriteGraph(w io.Writer, g *Graph) error { return graph.Write(w, g) }

// NodeMap is the bidirectional dictionary between a real dataset's
// external node IDs and the contiguous indices the pipeline runs on.
// Every Load returns one; LoadTruth and Result.PredictNames consume them.
type NodeMap = ingest.NodeMap

// LoadOptions tunes dataset loading: format selection (empty = sniff by
// content), allocation limits for untrusted inputs, and strict edge
// validation.
type LoadOptions = ingest.Options

// LoadedGraph is one ingested network: the graph, its ID dictionary and
// the format that produced it.
type LoadedGraph = ingest.Loaded

// LoadedPair is a ready-to-align pair of ingested networks.
type LoadedPair = ingest.Pair

// NodeNamer maps node indices back to external IDs (satisfied by
// *NodeMap); Result.PredictNames takes two.
type NodeNamer = core.NodeNamer

// Load reads one network in any registered format ("htc-graph", "json",
// "adjlist", "edgelist"), sniffing the format when opts.Format is empty,
// and returns the graph together with its ID↔index NodeMap.
func Load(r io.Reader, opts LoadOptions) (*LoadedGraph, error) { return ingest.Load(r, opts) }

// LoadFile is Load over a file path.
func LoadFile(path string, opts LoadOptions) (*LoadedGraph, error) {
	return ingest.LoadFile(path, opts)
}

// LoadPair loads a source and target network — the entry point for
// aligning real datasets:
//
//	pair, _ := htc.LoadPair("douban-online.edges", "douban-offline.edges", htc.LoadOptions{})
//	truth, _ := htc.LoadTruthFile("anchors.tsv", pair.SourceIDs, pair.TargetIDs)
//	res, _ := htc.Align(pair.Source, pair.Target, htc.Config{})
//	names := res.PredictNames(pair.SourceIDs, pair.TargetIDs)
func LoadPair(sourcePath, targetPath string, opts LoadOptions) (*LoadedPair, error) {
	return ingest.LoadPair(sourcePath, targetPath, opts)
}

// LoadTruth parses ID-keyed ground truth ("sourceID targetID" lines)
// through the pair's node maps into the index-keyed Truth the evaluator
// consumes.
func LoadTruth(r io.Reader, src, tgt *NodeMap) (Truth, error) { return ingest.ReadTruth(r, src, tgt) }

// LoadTruthFile is LoadTruth over a file path.
func LoadTruthFile(path string, src, tgt *NodeMap) (Truth, error) {
	return ingest.ReadTruthFile(path, src, tgt)
}

// WriteGraphAs serialises a graph (with its ID dictionary) in any
// registered format that supports writing.
func WriteGraphAs(w io.Writer, g *Graph, nodes *NodeMap, format string) error {
	return ingest.Write(w, g, nodes, format)
}

// Formats lists the registered graph file formats in sniff order.
func Formats() []string { return ingest.Formats() }

// TruthFromPairs builds an index-keyed Truth map from ID-keyed anchor
// pairs resolved through two node maps.
func TruthFromPairs(pairs [][2]string, src, tgt *NodeMap) (Truth, error) {
	return metrics.TruthFromPairs(pairs, src, tgt)
}

// Align runs the HTC pipeline (or the configured ablation variant) on a
// source and target graph and returns the alignment result. It is the
// one-shot form of the staged API: exactly Prepare followed by
// Prepared.Align.
func Align(gs, gt *Graph, cfg Config) (*Result, error) { return core.Align(gs, gt, cfg) }

// Prepared holds a graph pair's config-independent pipeline artifacts —
// validated graphs, input features, edge-orbit counts and aggregation
// Laplacians — so several configs can be aligned over one pair while the
// expensive stages 1–2 run at most once. It is safe for concurrent use.
type Prepared = core.Prepared

// PreparedStats reports how much artifact work a Prepared has absorbed.
type PreparedStats = core.PreparedStats

// Progress is one observation of a running pipeline, delivered to
// Config.Progress: stage boundaries, training epochs, fine-tuning
// iterations.
type Progress = core.Progress

// Observer receives Progress events; install one via Config.Progress.
type Observer = core.Observer

// The pipeline stages a Progress event can report, in execution order.
const (
	StageOrbitCounts = core.StageOrbitCounts
	StageLaplacians  = core.StageLaplacians
	StageTrain       = core.StageTrain
	StageFineTune    = core.StageFineTune
	StageIntegrate   = core.StageIntegrate
	StageRefine      = core.StageRefine
)

// Prepare validates a graph pair and builds the stage-1/2 artifacts the
// given config needs; further Prepared.Align calls — under this or any
// other config — reuse them, so variant and hyperparameter sweeps skip
// the dominant per-run cost entirely.
func Prepare(gs, gt *Graph, cfg Config) (*Prepared, error) { return core.Prepare(gs, gt, cfg) }

// PairHash returns the content hash identifying a graph pair: equal
// hashes mean interchangeable prepared artifacts (the alignment server
// keys its artifact cache on it).
func PairHash(gs, gt *Graph) string { return core.PairHash(gs, gt) }

// Evaluate scores an alignment matrix against ground truth at the given
// precision cutoffs.
func Evaluate(m *Matrix, truth Truth, qs ...int) Report { return metrics.Evaluate(m, truth, qs...) }

// EvaluateSim scores any alignment representation — dense or top-k —
// against ground truth. On a top-k representation an anchor missing from
// its row's candidate list counts as a miss, so pruning never inflates
// the numbers.
func EvaluateSim(s Sim, truth Truth, qs ...int) Report { return metrics.EvaluateSim(s, truth, qs...) }

// CountEdgeOrbits returns, for every edge of g (in g.Edges() order), how
// many times it occurs on each of the 13 edge orbits.
func CountEdgeOrbits(g *Graph) [][NumOrbits]int64 { return orbit.Count(g).PerEdge }

// NumNodeOrbits is the number of node orbits on 2–4-node graphlets.
const NumNodeOrbits = orbit.NumNodeOrbits

// NodeOrbitNames labels each node orbit.
var NodeOrbitNames = orbit.NodeNames

// CountNodeOrbits returns every node's graphlet degree vector: how many
// times the node occurs on each of the 15 node orbits of 2–4-node
// graphlets.
func CountNodeOrbits(g *Graph) [][NumNodeOrbits]int64 { return orbit.CountNodes(g).PerNode }

// HTC adapts the pipeline to the Aligner interface so it can be compared
// uniformly with the baselines. By default it is fully unsupervised and
// ignores seeds; with UseSeeds set it runs the semi-supervised HTC-S mode,
// reinforcing known anchors before fine-tuning (Proposition 2 covers
// "trusted (or known)" anchor nodes uniformly).
type HTC struct {
	// Config holds the pipeline hyperparameters (zero value = defaults).
	Config Config
	// UseSeeds feeds the seeds argument of Align into the fine-tuning
	// reinforcement (HTC-S).
	UseSeeds bool
}

// Name implements Aligner.
func (h HTC) Name() string {
	if h.UseSeeds {
		return h.Config.Variant.String() + "-S"
	}
	return h.Config.Variant.String()
}

// Align implements Aligner.
//
// Under the top-k backend the returned matrix is a materialisation with
// non-candidate pairs floored just below every candidate score — fine
// for matching, but evaluating it with Evaluate would grant pruned
// anchors a finite rank. Evaluation of top-k runs should go through
// AlignSim + EvaluateSim, which scores pruned anchors as misses (the
// experiment drivers do).
func (h HTC) Align(gs, gt *Graph, seeds []Anchor) (*Matrix, error) {
	res, err := h.run(gs, gt, seeds)
	if err != nil {
		return nil, err
	}
	// A dense run hands back its matrix itself; a top-k run never builds
	// one, and the Aligner interface demands one, so Dense materialises it
	// (baseline comparisons run at sizes where that is affordable).
	return res.Sim.Dense(), nil
}

// AlignSim is Align returning the backend's native representation
// instead of forcing a dense matrix, so consumers can evaluate top-k
// runs without the materialisation floor distorting ranks.
func (h HTC) AlignSim(gs, gt *Graph, seeds []Anchor) (Sim, error) {
	res, err := h.run(gs, gt, seeds)
	if err != nil {
		return nil, err
	}
	return res.Sim, nil
}

func (h HTC) run(gs, gt *Graph, seeds []Anchor) (*Result, error) {
	cfg := h.Config
	if h.UseSeeds {
		cfg.Seeds = make([][2]int, 0, len(seeds))
		for _, s := range seeds {
			cfg.Seeds = append(cfg.Seeds, [2]int{s.S, s.T})
		}
	}
	return core.Align(gs, gt, cfg)
}

// The six baseline aligners of the paper's evaluation, re-exported for
// downstream comparison studies. See internal/baselines for fidelity
// notes.
type (
	// IsoRank is topology-only fixed-point similarity propagation.
	IsoRank = baselines.IsoRank
	// FINAL is attributed alignment via compatibility-gated propagation.
	FINAL = baselines.FINAL
	// REGAL is unsupervised xNetMF embedding alignment.
	REGAL = baselines.REGAL
	// PALE embeds each network independently and learns a seed-supervised
	// mapping.
	PALE = baselines.PALE
	// CENALP iteratively grows anchors and re-embeds the coupled graphs.
	CENALP = baselines.CENALP
	// GAlign is the unsupervised multi-order GCN aligner.
	GAlign = baselines.GAlign
	// GREAT aligns by raw graphlet-edge-signature similarity (no
	// learning) — the higher-order, embedding-free strawman.
	GREAT = baselines.GREAT
)

// SampleSeeds draws a fraction of ground truth as supervision for the
// supervised baselines (the paper grants them 10%).
func SampleSeeds(truth Truth, frac float64, seed int64) []Anchor {
	return baselines.SampleSeeds(truth, frac, seed)
}

// GreedyMatch extracts an injective assignment from an alignment matrix
// by repeatedly taking the best unmatched pair (1/2-approximation).
func GreedyMatch(m *Matrix) []int { return align.GreedyMatch(m) }

// RefineOptions configures an explicit RefiNA refinement run — the
// library face of the pipeline's Config.RefineIters stage, for refining
// similarities (or matchings, via MatchingSim) produced elsewhere.
type RefineOptions = refine.Options

// Refined is the outcome of a Refine call: the refined similarity, the
// per-iteration matched-neighborhood-consistency trajectory and the
// resolved token budget.
type Refined = refine.Result

// Refine runs RefiNA iterative refinement over any similarity
// representation: dense inputs update the full matrix, sparse top-k
// inputs refine candidate lists in O(n·k·deg) without materialising n×n.
// Iters = 0 returns the input unchanged.
func Refine(s Sim, gs, gt *Graph, opts RefineOptions) (*Refined, error) {
	return refine.Refine(s, gs, gt, opts)
}

// MatchingSim lifts a one-to-one matching (match[i] = target of source
// node i, -1 = unmatched) into a sparse similarity whose rows may grow
// to k candidates during refinement — the bridge from an externally
// computed matching to Refine.
func MatchingSim(match []int, cols, k int) (*TopKSim, error) {
	return refine.FromMatching(match, cols, k)
}

// MNC scores a matching's matched-neighborhood consistency: the mean
// Jaccard overlap between each source node's matched neighbourhood and
// its counterpart's neighbourhood. workers ≤ 0 uses every CPU.
func MNC(match []int, gs, gt *Graph, workers int) float64 {
	return refine.MNC(match, gs, gt, workers)
}

// GreedyMatchSim is GreedyMatch over any alignment representation; on a
// top-k representation it sorts only the O(n·k) candidate pairs.
func GreedyMatchSim(s Sim) []int { return align.GreedyMatchSim(s) }

// HungarianMatch computes the exact maximum-weight one-to-one assignment
// of an alignment matrix (O(n³)).
func HungarianMatch(m *Matrix) []int { return align.HungarianMatch(m) }

// Dataset simulators reproducing the statistical regimes of the paper's
// five evaluation pairs; see internal/datasets for the substitution notes.
var (
	// AllmovieImdb builds the dense, clustered movie-network pair.
	AllmovieImdb = datasets.AllmovieImdb
	// Douban builds the sparse, partially-aligned social pair.
	Douban = datasets.Douban
	// FlickrMyspace builds the consistency-violating hard pair.
	FlickrMyspace = datasets.FlickrMyspace
	// Econ builds the core–periphery economic network.
	Econ = datasets.Econ
	// BN builds the geometric brain network.
	BN = datasets.BN
	// PPI builds a duplication–divergence protein interaction network.
	PPI = datasets.PPI
	// MakeTarget derives a noisy, relabelled target from any source.
	MakeTarget = datasets.MakeTarget
)
