package ingest

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"

	"github.com/htc-align/htc/internal/dense"
	"github.com/htc-align/htc/internal/graph"
)

// TestGoldenFixtures locks each registered format against a checked-in
// sample: sniffed format name, node-id dictionary and graph shape.
func TestGoldenFixtures(t *testing.T) {
	cases := []struct {
		file, format string
		ids          []string
		edges        int
		attrDim      int
	}{
		{"sample.edgelist", "edgelist", []string{"alice", "bob", "carol", "dave"}, 4, 0},
		{"sample.adjlist", "adjlist", []string{"a", "b", "c", "d"}, 4, 2},
		{"sample.json", "json", []string{"x", "y", "z"}, 2, 0},
		{"sample.htc-graph", "htc-graph", []string{"0", "1", "2"}, 2, 0},
	}
	for _, c := range cases {
		t.Run(c.file, func(t *testing.T) {
			loaded, err := LoadFile(filepath.Join("testdata", c.file), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if loaded.Format != c.format {
				t.Errorf("sniffed format %q, want %q", loaded.Format, c.format)
			}
			if got := loaded.Nodes.IDs(); !equalStrings(got, c.ids) {
				t.Errorf("ids = %v, want %v", got, c.ids)
			}
			if loaded.Graph.N() != len(c.ids) || loaded.Graph.NumEdges() != c.edges {
				t.Errorf("graph %v, want n=%d e=%d", loaded.Graph, len(c.ids), c.edges)
			}
			gotDim := 0
			if loaded.Graph.Attrs() != nil {
				gotDim = loaded.Graph.Attrs().Cols
			}
			if gotDim != c.attrDim {
				t.Errorf("attr dim %d, want %d", gotDim, c.attrDim)
			}
			// Explicitly naming the format must agree with sniffing.
			named, err := LoadFile(filepath.Join("testdata", c.file), Options{Format: c.format})
			if err != nil {
				t.Fatal(err)
			}
			if named.Graph.NumEdges() != c.edges {
				t.Errorf("named load drifted from sniffed load")
			}
		})
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestEdgeListCSVAndComments(t *testing.T) {
	in := "% matrix-market style comment\nu1,u2\nu2 , u3\n# plain comment\nu3\tu1\n"
	loaded, err := Load(strings.NewReader(in), Options{Format: "edgelist"})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Graph.N() != 3 || loaded.Graph.NumEdges() != 3 {
		t.Fatalf("got %v", loaded.Graph)
	}
	if id := loaded.Nodes.ID(0); id != "u1" {
		t.Fatalf("first interned id %q", id)
	}
}

func TestEdgeListTolerantVsStrict(t *testing.T) {
	in := "a b\na a\na b\nb a\n" // self-loop + two duplicates
	loaded, err := Load(strings.NewReader(in), Options{Format: "edgelist"})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Graph.NumEdges() != 1 {
		t.Fatalf("tolerant load kept %d edges, want 1", loaded.Graph.NumEdges())
	}
	if _, err := Load(strings.NewReader("a a\n"), Options{Format: "edgelist", Strict: true}); !errors.Is(err, graph.ErrSelfLoop) {
		t.Fatalf("strict self-loop error = %v, want ErrSelfLoop", err)
	}
	if _, err := Load(strings.NewReader("a b\nb a\n"), Options{Format: "edgelist", Strict: true}); !errors.Is(err, graph.ErrDupEdge) {
		t.Fatalf("strict duplicate error = %v, want ErrDupEdge", err)
	}
}

func TestHTCGraphStrict(t *testing.T) {
	// Strict must reach the htc-graph reader like every other format.
	if _, err := Load(strings.NewReader("htc-graph 3 1 0\n1 1\n"), Options{Format: "htc-graph", Strict: true}); !errors.Is(err, graph.ErrSelfLoop) {
		t.Errorf("strict self-loop error = %v, want ErrSelfLoop", err)
	}
	if _, err := Load(strings.NewReader("htc-graph 3 2 0\n0 1\n1 0\n"), Options{Format: "htc-graph", Strict: true}); !errors.Is(err, graph.ErrDupEdge) {
		t.Errorf("strict duplicate error = %v, want ErrDupEdge", err)
	}
	if _, err := Load(strings.NewReader("htc-graph 3 2 0\n0 1\n1 0\n"), Options{Format: "htc-graph"}); err != nil {
		t.Errorf("tolerant duplicate rejected: %v", err)
	}
}

func TestJSONSpecValidation(t *testing.T) {
	for name, in := range map[string]string{
		"edge range":     `{"nodes": 2, "edges": [[0, 5]]}`,
		"bad ids len":    `{"nodes": 2, "edges": [], "ids": ["a"]}`,
		"dup ids":        `{"nodes": 2, "edges": [], "ids": ["a", "a"]}`,
		"unknown field":  `{"nodes": 2, "edges": [], "bogus": 1}`,
		"trailing":       `{"nodes": 2, "edges": []}{"nodes": 1}`,
		"trailing brace": `{"nodes": 2, "edges": []}}`,
		"trailing brack": `{"nodes": 2, "edges": []}]`,
		"non-finite":     `{"nodes": 1, "edges": [], "attrs": [[1e999]]}`,
		"negative nodes": `{"nodes": -3, "edges": []}`,
	} {
		if _, err := Load(strings.NewReader(in), Options{Format: "json"}); err == nil {
			t.Errorf("%s: accepted %s", name, in)
		}
	}
	// The range error carries the shared sentinel.
	_, err := Load(strings.NewReader(`{"nodes": 2, "edges": [[0, 5]]}`), Options{Format: "json"})
	if !errors.Is(err, graph.ErrEdgeRange) {
		t.Errorf("edge-range error = %v, want ErrEdgeRange", err)
	}
}

// TestDecodeStrictReaderError: a reader that fails after the value is
// not trailing data; its own error comes back, while a truncated value
// after the first is still trailing data.
func TestDecodeStrictReaderError(t *testing.T) {
	broken := errors.New("connection reset")
	var v struct{ Nodes int }
	err := DecodeStrict(io.MultiReader(strings.NewReader(`{"Nodes": 1}  `), iotest.ErrReader(broken)), &v)
	if !errors.Is(err, broken) {
		t.Errorf("failing reader: err = %v, want the reader's error", err)
	}
	var trailing *TrailingDataError
	if err := DecodeStrict(strings.NewReader(`{"Nodes": 1} "abc`), &v); !errors.As(err, &trailing) {
		t.Errorf("truncated second value: err = %v, want *TrailingDataError", err)
	}
}

func TestAdjListValidation(t *testing.T) {
	for name, in := range map[string]string{
		"no colon":          "a b c\n",
		"dup head":          "a: b\na: c\n",
		"ragged attrs":      "a: b | 1 2\nb: | 1\n",
		"mixed attrs":       "a: b | 1\nb:\n",
		"bad attr float":    "a: | x\n",
		"neighbour no line": "a: b | 1\n", // b never heads a line but attrs are in play
	} {
		if _, err := Load(strings.NewReader(in), Options{Format: "adjlist"}); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
	// Mutual listing is fine, even strict; self-loops are not.
	if _, err := Load(strings.NewReader("a: b\nb: a\n"), Options{Format: "adjlist", Strict: true}); err != nil {
		t.Errorf("mutual listing rejected: %v", err)
	}
	if _, err := Load(strings.NewReader("a: a\n"), Options{Format: "adjlist", Strict: true}); !errors.Is(err, graph.ErrSelfLoop) {
		t.Errorf("strict self-loop error = %v, want ErrSelfLoop", err)
	}
}

func TestLoadLimits(t *testing.T) {
	cases := []struct {
		format, in string
		opts       Options
	}{
		{"edgelist", "a b\nb c\nc d\n", Options{MaxNodes: 2}},
		{"edgelist", "a b\nb c\nc d\n", Options{MaxEdges: 2}},
		{"adjlist", "a: b c d\n", Options{MaxNodes: 2}},
		{"adjlist", "a: b c d\n", Options{MaxEdges: 2}},
		{"adjlist", "a: | 1 2 3\n", Options{MaxAttrDim: 2}},
		{"json", `{"nodes": 999999, "edges": []}`, Options{MaxNodes: 10}},
		{"json", `{"nodes": 3, "edges": [[0,1],[1,2]]}`, Options{MaxEdges: 1}},
		{"htc-graph", "htc-graph 999999999999 0 0\n", Options{MaxNodes: 10}},
	}
	for _, c := range cases {
		c.opts.Format = c.format
		if _, err := Load(strings.NewReader(c.in), c.opts); err == nil {
			t.Errorf("%s with %+v accepted %q", c.format, c.opts, c.in)
		}
	}
}

// TestWriteReadRoundTrip drives every writable format over random
// attributed graphs (attribute-free for edgelist) and requires the graph
// and id dictionary to survive unchanged.
func TestWriteReadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, format := range []string{"htc-graph", "json", "adjlist", "edgelist"} {
		t.Run(format, func(t *testing.T) {
			for trial := 0; trial < 25; trial++ {
				n := 1 + rng.Intn(12)
				b := graph.NewBuilder(n)
				if format == "edgelist" {
					// An edge list cannot represent isolated nodes; thread a
					// path through all of them so every node appears.
					for i := 1; i < n; i++ {
						b.AddEdge(i-1, i)
					}
				}
				for i := 0; i < 2*n; i++ {
					b.AddEdge(rng.Intn(n), rng.Intn(n))
				}
				g := b.Build()
				var nodes *NodeMap
				if format == "htc-graph" {
					nodes = Identity(n)
				} else {
					nodes = NewNodeMap()
					for i := 0; i < n; i++ {
						nodes.Intern(strings.Repeat("n", 1+i%3) + string(rune('a'+i)))
					}
				}
				withAttrs := format != "edgelist" && format != "htc-graph" && rng.Intn(2) == 0
				if withAttrs {
					attrs := dense.New(n, 2)
					for i := range attrs.Data {
						attrs.Data[i] = rng.NormFloat64()
					}
					g = g.WithAttrs(attrs)
				}
				var buf bytes.Buffer
				if err := Write(&buf, g, nodes, format); err != nil {
					t.Fatalf("trial %d: write: %v", trial, err)
				}
				loaded, err := Load(bytes.NewReader(buf.Bytes()), Options{Format: format})
				if err != nil {
					t.Fatalf("trial %d: read back: %v\n%s", trial, err, buf.String())
				}
				if loaded.Graph.N() != g.N() || loaded.Graph.NumEdges() != g.NumEdges() {
					t.Fatalf("trial %d: shape drifted: %v vs %v\n%s", trial, loaded.Graph, g, buf.String())
				}
				for _, e := range g.Edges() {
					u, _ := loaded.Nodes.Index(nodes.ID(int(e[0])))
					v, _ := loaded.Nodes.Index(nodes.ID(int(e[1])))
					if !loaded.Graph.HasEdge(u, v) {
						t.Fatalf("trial %d: lost edge %s-%s", trial, nodes.ID(int(e[0])), nodes.ID(int(e[1])))
					}
				}
				if withAttrs {
					a := loaded.Graph.Attrs()
					if a == nil || a.Cols != 2 {
						t.Fatalf("trial %d: attrs lost", trial)
					}
					for i := 0; i < n; i++ {
						j, _ := loaded.Nodes.Index(nodes.ID(i))
						for k, w := range g.Attrs().Row(i) {
							if a.Row(j)[k] != w {
								t.Fatalf("trial %d: attr drifted for node %s", trial, nodes.ID(i))
							}
						}
					}
				}
			}
		})
	}
	// Writer refusals: edgelist cannot carry attrs, htc-graph cannot carry names.
	g := graph.NewBuilder(2)
	g.AddEdge(0, 1)
	attributed := g.Build().WithAttrs(dense.New(2, 1))
	if err := Write(&bytes.Buffer{}, attributed, Identity(2), "edgelist"); err == nil {
		t.Error("edgelist accepted an attributed graph")
	}
	named := NewNodeMap()
	named.Intern("a")
	named.Intern("b")
	if err := Write(&bytes.Buffer{}, g.Build(), named, "htc-graph"); err == nil {
		t.Error("htc-graph accepted a named graph")
	}
	bad := NewNodeMap()
	bad.Intern("has space")
	bad.Intern("ok")
	if err := Write(&bytes.Buffer{}, g.Build(), bad, "edgelist"); err == nil {
		t.Error("edgelist accepted an id with whitespace")
	}
}

func TestReadTruth(t *testing.T) {
	src, err := LoadFile(filepath.Join("testdata", "sample.edgelist"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := LoadFile(filepath.Join("testdata", "sample.json"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	truth, err := ReadTruthFile(filepath.Join("testdata", "sample.truth"), src.Nodes, tgt.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	if len(truth) != src.Graph.N() || truth.NumAnchors() != 2 {
		t.Fatalf("truth = %v", truth)
	}
	a, _ := src.Nodes.Index("alice")
	x, _ := tgt.Nodes.Index("x")
	if truth[a] != x {
		t.Fatalf("alice → %d, want %d", truth[a], x)
	}
	for name, in := range map[string]string{
		"unknown source": "nobody x\n",
		"unknown target": "alice nothing\n",
		"conflict":       "alice x\nalice y\n",
		"bad fields":     "alice\n",
	} {
		if _, err := ReadTruth(strings.NewReader(in), src.Nodes, tgt.Nodes); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
	// Round trip through WriteTruth.
	var buf bytes.Buffer
	if err := WriteTruth(&buf, truth, src.Nodes, tgt.Nodes); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTruth(&buf, src.Nodes, tgt.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	for i := range truth {
		if back[i] != truth[i] {
			t.Fatalf("truth round trip drifted at %d: %d vs %d", i, back[i], truth[i])
		}
	}
}

func TestNodeMapIdentity(t *testing.T) {
	m := Identity(3)
	if !m.IsIdentity() || m.Len() != 3 || m.ID(2) != "2" {
		t.Fatalf("identity map misbehaves: %v", m)
	}
	if i, ok := m.Index("1"); !ok || i != 1 {
		t.Fatalf("Index(1) = %d,%v", i, ok)
	}
	for _, bad := range []string{"3", "-1", "x", ""} {
		if _, ok := m.Index(bad); ok {
			t.Errorf("identity Index(%q) resolved", bad)
		}
	}
	if got := m.IDs(); !equalStrings(got, []string{"0", "1", "2"}) {
		t.Fatalf("IDs() = %v", got)
	}
}

func TestDetectFormatUnrecognised(t *testing.T) {
	if _, err := DetectFormat([]byte("one two three\n")); err == nil {
		t.Error("three-token line sniffed as a known format")
	}
	if _, err := Load(strings.NewReader(""), Options{}); err == nil {
		t.Error("empty input sniffed as a known format")
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("parquet"); err == nil {
		t.Error("unknown format resolved")
	}
	if _, err := Load(strings.NewReader("a b\n"), Options{Format: "parquet"}); err == nil {
		t.Error("load with unknown format succeeded")
	}
}
