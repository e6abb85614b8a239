package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"time"

	"github.com/htc-align/htc/internal/core"
	"github.com/htc-align/htc/internal/datasets"
	"github.com/htc-align/htc/internal/graph"
	"github.com/htc-align/htc/internal/ingest"
)

// datasetFn materialises a named dataset pair. n ≤ 0 selects the
// generator's default size; remove is the edge-removal ratio used by the
// single-network datasets to derive their target.
type datasetFn func(n int, seed int64, remove float64) *datasets.Pair

// pairFromGraph derives a (source, target, truth) pair from a single
// network by edge removal and hidden relabelling, the construction the
// paper's robustness study uses for Econ/BN.
func pairFromGraph(name string, g *graph.Graph, remove float64, seed int64) *datasets.Pair {
	tgt, truth := datasets.MakeTarget(g, remove, seed+1)
	return &datasets.Pair{Name: name, Source: g, Target: tgt, Truth: truth}
}

// builtin couples a dataset generator with whether the request's remove
// ratio actually drives it: the two-network simulators carry their own
// noise model and ignore remove, so the cache key must ignore it too.
type builtin struct {
	fn         datasetFn
	usesRemove bool
}

var builtinDatasets = map[string]builtin{
	"douban": {fn: func(n int, seed int64, _ float64) *datasets.Pair {
		return datasets.Douban(n, seed)
	}},
	"allmovie-imdb": {fn: func(n int, seed int64, _ float64) *datasets.Pair {
		return datasets.AllmovieImdb(n, seed)
	}},
	"flickr-myspace": {fn: func(n int, seed int64, _ float64) *datasets.Pair {
		return datasets.FlickrMyspace(n, seed)
	}},
	"econ": {usesRemove: true, fn: func(n int, seed int64, remove float64) *datasets.Pair {
		return pairFromGraph("econ", datasets.Econ(n, seed), remove, seed)
	}},
	"bn": {usesRemove: true, fn: func(n int, seed int64, remove float64) *datasets.Pair {
		return pairFromGraph("bn", datasets.BN(n, seed), remove, seed)
	}},
	"ppi": {usesRemove: true, fn: func(n int, seed int64, remove float64) *datasets.Pair {
		return pairFromGraph("ppi", datasets.PPI(n, seed), remove, seed)
	}},
	// synthetic is a small attribute-free Erdős–Rényi pair meant for
	// smoke tests and demos: fast to generate, fast to align.
	"synthetic": {usesRemove: true, fn: func(n int, seed int64, remove float64) *datasets.Pair {
		if n <= 0 {
			n = 200
		}
		rng := rand.New(rand.NewSource(seed))
		p := 8 / float64(n-1) // average degree ≈ 8
		g := graph.ErdosRenyi(n, p, rng)
		return pairFromGraph("synthetic", g, remove, seed)
	}},
}

// Datasets lists the built-in dataset names, sorted.
func Datasets() []string {
	names := make([]string, 0, len(builtinDatasets))
	for name := range builtinDatasets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func lookupDataset(name string) (builtin, error) {
	b, ok := builtinDatasets[strings.ToLower(strings.TrimSpace(name))]
	if !ok {
		return builtin{}, fmt.Errorf("unknown dataset %q (built-ins: %s)", name, strings.Join(Datasets(), ", "))
	}
	return b, nil
}

// canonicalRemove returns the remove ratio that actually drives the run:
// the resolver default for single-network datasets, zero for datasets
// (and inline pairs) that ignore it — so requests differing only in an
// ignored field share a cache key.
func canonicalRemove(req *AlignRequest) float64 {
	if req.Dataset == "" {
		return 0
	}
	b, err := lookupDataset(req.Dataset)
	if err != nil || !b.usesRemove {
		return 0
	}
	if req.Remove == 0 {
		return 0.1
	}
	return req.Remove
}

// resolvePair materialises the graph pair of an admitted request: the
// upload or inline pair admission memoised, the named built-in
// generator's otherwise.
func resolvePair(req *AlignRequest) (*datasets.Pair, error) {
	if req.builtPair != nil {
		return req.builtPair, nil
	}
	b, err := lookupDataset(req.Dataset)
	if err != nil {
		return nil, err
	}
	remove := req.Remove
	if remove == 0 {
		remove = 0.1
	}
	return b.fn(req.N, req.DataSeed, remove), nil
}

// maxDatasetIDLen bounds uploaded dataset ids.
const maxDatasetIDLen = 64

// validDatasetID enforces the id grammar of PUT /v1/datasets/{id}:
// filesystem- and URL-safe, no dot segment, no lookalike tricks.
func validDatasetID(id string) error {
	if id == "" || len(id) > maxDatasetIDLen {
		return fmt.Errorf("dataset id must be 1..%d characters", maxDatasetIDLen)
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("dataset id %q may only contain letters, digits, '.', '_' and '-'", id)
		}
	}
	if id == "." || id == ".." {
		return fmt.Errorf("dataset id %q is a dot segment, which clients remove from a path", id)
	}
	if _, ok := builtinDatasets[strings.ToLower(id)]; ok {
		return fmt.Errorf("dataset id %q shadows a built-in dataset", id)
	}
	return nil
}

// DatasetUpload is the body of PUT /v1/datasets/{id}: the source and
// target networks as raw text in any registered format, plus optional
// ID-keyed ground truth ("sourceID targetID" lines).
type DatasetUpload struct {
	// Format names the graph format of both documents; empty sniffs
	// each by content.
	Format string `json:"format,omitempty"`
	// Source and Target are the raw graph documents.
	Source string `json:"source"`
	Target string `json:"target"`
	// Truth optionally carries ID-keyed anchor pairs, one per line.
	Truth string `json:"truth,omitempty"`
	// Strict rejects self-loops and duplicate edges instead of
	// skipping them.
	Strict bool `json:"strict,omitempty"`
}

// GraphSummary describes one uploaded network.
type GraphSummary struct {
	Nodes  int    `json:"nodes"`
	Edges  int    `json:"edges"`
	Attrs  int    `json:"attrs"`
	Format string `json:"format"`
}

// DatasetInfo is the metadata face of an uploaded dataset, returned by
// the PUT and GET endpoints.
type DatasetInfo struct {
	ID      string       `json:"id"`
	Source  GraphSummary `json:"source"`
	Target  GraphSummary `json:"target"`
	Anchors int          `json:"anchors"`
	// PairHash is the graphs' content hash — the key under which the
	// pair's prepared artifacts are cached across jobs.
	PairHash string `json:"pair_hash"`
	// ContentHash additionally covers the ground truth; it keys the
	// result cache, so re-uploading identical content under another id
	// still hits.
	ContentHash string    `json:"content_hash"`
	UploadedAt  time.Time `json:"uploaded_at"`
}

// storedDataset is one uploaded dataset pinned in the server's dataset
// LRU. Each entry pins two whole graphs plus their id dictionaries, so
// the store is kept small; jobs memoise their pair at admission, making
// eviction (or deletion) mid-flight harmless.
type storedDataset struct {
	pair *datasets.Pair
	info DatasetInfo
}

// contentHash is the dataset's result-cache identity: the graphs' pair
// hash extended with the resolved ground truth.
func (d *storedDataset) contentHash() string { return d.info.ContentHash }

// maxUploadAttrDim bounds the attribute dimension of uploaded graphs:
// real attribute spaces are tens to hundreds wide, and without a cap an
// htc-graph header could claim a dimension that commits terabytes before
// a single attribute row is read.
const maxUploadAttrDim = 1024

// buildDataset ingests an upload body into a stored dataset: both graphs
// through the format registry (bounded by the server's admission limits),
// the truth through the pair's id dictionaries, and the content hashes.
func buildDataset(id string, up *DatasetUpload, maxNodes int, now time.Time) (*storedDataset, error) {
	if strings.TrimSpace(up.Source) == "" || strings.TrimSpace(up.Target) == "" {
		return nil, fmt.Errorf("upload needs both source and target graph documents")
	}
	opts := ingest.Options{Format: up.Format, MaxNodes: maxNodes, MaxAttrDim: maxUploadAttrDim, Strict: up.Strict}
	src, err := ingest.Load(strings.NewReader(up.Source), opts)
	if err != nil {
		return nil, fmt.Errorf("source: %w", err)
	}
	tgt, err := ingest.Load(strings.NewReader(up.Target), opts)
	if err != nil {
		return nil, fmt.Errorf("target: %w", err)
	}
	pair := &datasets.Pair{
		Name: id, Source: src.Graph, Target: tgt.Graph,
		SourceIDs: src.Nodes, TargetIDs: tgt.Nodes,
	}
	if strings.TrimSpace(up.Truth) != "" {
		truth, err := ingest.ReadTruth(strings.NewReader(up.Truth), src.Nodes, tgt.Nodes)
		if err != nil {
			return nil, err
		}
		pair.Truth = truth
	}
	// The content hash keys the result cache, whose entries carry
	// name-keyed matchings (pairs_named) and truth-dependent evaluation —
	// so it must cover the id dictionaries and the truth on top of the
	// structural pair hash, or a structurally identical upload with
	// different node names would be served another dataset's names.
	pairHash := core.PairHash(pair.Source, pair.Target)
	sum := sha256.New()
	io.WriteString(sum, pairHash)
	for _, ids := range []*ingest.NodeMap{src.Nodes, tgt.Nodes} {
		for i, n := 0, ids.Len(); i < n; i++ {
			fmt.Fprintf(sum, "\x00%s", ids.ID(i))
		}
		io.WriteString(sum, "\x01")
	}
	for _, t := range pair.Truth {
		fmt.Fprintf(sum, " %d", t)
	}
	ds := &storedDataset{
		pair: pair,
		info: DatasetInfo{
			ID:          id,
			Source:      summarise(src),
			Target:      summarise(tgt),
			Anchors:     pair.Truth.NumAnchors(),
			PairHash:    pairHash,
			ContentHash: hex.EncodeToString(sum.Sum(nil)),
			UploadedAt:  now,
		},
	}
	return ds, nil
}

func summarise(l *ingest.Loaded) GraphSummary {
	attrs := 0
	if l.Graph.Attrs() != nil {
		attrs = l.Graph.Attrs().Cols
	}
	return GraphSummary{Nodes: l.Graph.N(), Edges: l.Graph.NumEdges(), Attrs: attrs, Format: l.Format}
}
