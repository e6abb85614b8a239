package ingest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/htc-align/htc/internal/dense"
	"github.com/htc-align/htc/internal/graph"
)

// splitEdgeLine tokenises one edge-list data line into exactly two
// fields without allocating: CSV when a comma is present, whitespace
// otherwise. It is the reader's hot path — a million-edge file calls it
// a million times.
func splitEdgeLine(line []byte) (a, b []byte, ok bool) {
	if i := bytes.IndexByte(line, ','); i >= 0 {
		rest := line[i+1:]
		if bytes.IndexByte(rest, ',') >= 0 {
			return nil, nil, false // three or more CSV fields
		}
		a = bytes.TrimSpace(line[:i])
		b = bytes.TrimSpace(rest)
		return a, b, len(a) > 0 && len(b) > 0
	}
	isSpace := func(c byte) bool { return c == ' ' || c == '\t' }
	i := 0
	for i < len(line) && !isSpace(line[i]) {
		i++
	}
	a = line[:i]
	for i < len(line) && isSpace(line[i]) {
		i++
	}
	j := i
	for j < len(line) && !isSpace(line[j]) {
		j++
	}
	b = line[i:j]
	for ; j < len(line); j++ {
		if !isSpace(line[j]) {
			return nil, nil, false // trailing third field
		}
	}
	return a, b, len(a) > 0 && len(b) > 0
}

func init() {
	// Sniff order: self-identifying formats first, the permissive edge
	// list last so it only catches what nothing else claims.
	Register(htcGraphFormat{})
	Register(jsonFormat{})
	Register(adjListFormat{})
	Register(edgeListFormat{})
}

// firstDataLine returns the first non-blank, non-comment line of head
// (possibly truncated mid-line — good enough for sniffing).
func firstDataLine(head []byte) string {
	for _, line := range strings.Split(string(head), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || isComment(line) {
			continue
		}
		return line
	}
	return ""
}

// ---------------------------------------------------------------- htc-graph

// htcGraphFormat adapts the library's own text format (graph.Read/Write)
// to the registry. Node ids are the indices themselves.
type htcGraphFormat struct{}

func (htcGraphFormat) Name() string { return "htc-graph" }

func (htcGraphFormat) Detect(head []byte) bool {
	return strings.HasPrefix(firstDataLine(head), "htc-graph")
}

func (htcGraphFormat) Read(r io.Reader, opts Options) (*Loaded, error) {
	g, err := graph.ReadLimited(r, graph.Limits{
		MaxNodes: opts.MaxNodes, MaxEdges: opts.MaxEdges, MaxAttrDim: opts.MaxAttrDim,
		Strict: opts.Strict,
	})
	if err != nil {
		return nil, err
	}
	return &Loaded{Graph: g, Nodes: Identity(g.N())}, nil
}

func (htcGraphFormat) Write(w io.Writer, g *graph.Graph, nodes *NodeMap) error {
	if nodes != nil && !nodes.IsIdentity() {
		return fmt.Errorf("ingest: htc-graph format cannot carry node names; use json or adjlist")
	}
	return graph.Write(w, g)
}

// ---------------------------------------------------------------- json

// jsonFormat reads a GraphSpec document: {"nodes": n, "edges": [[u,v],
// ...], "attrs": [...], "ids": [...]}. Without ids the map is the
// identity; with ids the spec names its nodes.
type jsonFormat struct{}

func (jsonFormat) Name() string { return "json" }

func (jsonFormat) Detect(head []byte) bool {
	return strings.HasPrefix(strings.TrimSpace(string(head)), "{")
}

func (jsonFormat) Read(r io.Reader, opts Options) (*Loaded, error) {
	var spec GraphSpec
	if err := DecodeStrict(r, &spec); err != nil {
		var trailing *TrailingDataError
		if errors.As(err, &trailing) {
			return nil, fmt.Errorf("ingest: json: trailing data after graph document, near byte %d", trailing.Offset)
		}
		return nil, fmt.Errorf("ingest: json: %w", err)
	}
	if opts.MaxEdges > 0 && len(spec.Edges) > opts.MaxEdges {
		return nil, fmt.Errorf("ingest: json: %d edges, limit is %d", len(spec.Edges), opts.MaxEdges)
	}
	g, err := spec.build(opts.MaxNodes, opts.MaxAttrDim, opts.Strict)
	if err != nil {
		return nil, fmt.Errorf("ingest: json: %w", err)
	}
	nodes, err := spec.nodeMap()
	if err != nil {
		return nil, fmt.Errorf("ingest: json: %w", err)
	}
	return &Loaded{Graph: g, Nodes: nodes}, nil
}

func (jsonFormat) Write(w io.Writer, g *graph.Graph, nodes *NodeMap) error {
	blob, err := json.MarshalIndent(SpecFromGraph(g, nodes), "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	_, err = w.Write(blob)
	return err
}

// DecodeStrict decodes exactly one JSON value from r into v. An unknown
// object field is an error, and so is anything but whitespace after the
// value: a *TrailingDataError. Decode errors and the reader's own errors
// come back unwrapped, so errors.As still finds, say, the
// *http.MaxBytesError of a request body that runs past its limit.
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	_, err := dec.Token()
	if err == io.EOF {
		return nil
	}
	// A value, a syntax error or a truncated value after the first is
	// trailing data; any other error is the reader's own.
	if _, syntax := err.(*json.SyntaxError); err != nil && !syntax && err != io.ErrUnexpectedEOF {
		return err
	}
	return &TrailingDataError{Offset: dec.InputOffset()}
}

// TrailingDataError reports data after the one JSON value DecodeStrict
// accepts. Offset is the decoder's input offset once it read past it.
type TrailingDataError struct{ Offset int64 }

func (e *TrailingDataError) Error() string {
	return fmt.Sprintf("trailing data after the JSON document, near byte %d", e.Offset)
}

// ---------------------------------------------------------------- edgelist

// edgeListFormat reads SNAP-style edge lists: one "u v" pair per line,
// whitespace or comma separated, ids are arbitrary whitespace-free
// strings interned in order of first appearance. # and % mark comments.
type edgeListFormat struct{}

func (edgeListFormat) Name() string { return "edgelist" }

func (edgeListFormat) Detect(head []byte) bool {
	line := firstDataLine(head)
	return line != "" && len(splitFields(line)) == 2
}

func (edgeListFormat) Read(r io.Reader, opts Options) (*Loaded, error) {
	sc := newScanner(r)
	nodes := NewNodeMap()
	var edges [][2]int
	var seen map[uint64]struct{}
	if opts.Strict {
		seen = make(map[uint64]struct{})
	}
	lineno := 0
	for sc.Scan() {
		lineno++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' || line[0] == '%' {
			continue
		}
		a, bTok, ok := splitEdgeLine(line)
		if !ok {
			return nil, fmt.Errorf("ingest: edgelist line %d: want 2 fields in %q", lineno, line)
		}
		u := nodes.internBytes(a)
		v := nodes.internBytes(bTok)
		if opts.MaxNodes > 0 && nodes.Len() > opts.MaxNodes {
			return nil, fmt.Errorf("ingest: edgelist line %d: more than %d nodes", lineno, opts.MaxNodes)
		}
		if u == v {
			if opts.Strict {
				return nil, fmt.Errorf("ingest: edgelist line %d (%q): %w", lineno, line, graph.ErrSelfLoop)
			}
			continue
		}
		if opts.Strict {
			key := graph.EdgeKey(u, v)
			if _, dup := seen[key]; dup {
				return nil, fmt.Errorf("ingest: edgelist line %d (%q): %w", lineno, line, graph.ErrDupEdge)
			}
			seen[key] = struct{}{}
		}
		edges = append(edges, [2]int{u, v})
		if opts.MaxEdges > 0 && len(edges) > opts.MaxEdges {
			return nil, fmt.Errorf("ingest: edgelist line %d: more than %d edges", lineno, opts.MaxEdges)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ingest: edgelist line %d: %w", lineno+1, err)
	}
	b := graph.NewBuilder(nodes.Len())
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return &Loaded{Graph: b.Build(), Nodes: nodes}, nil
}

// Write emits one "u v" line per edge. Edge lists cannot carry
// attributes; writing an attributed graph is an error rather than silent
// data loss.
func (edgeListFormat) Write(w io.Writer, g *graph.Graph, nodes *NodeMap) error {
	if g.Attrs() != nil && g.Attrs().Cols > 0 {
		return fmt.Errorf("ingest: edgelist format cannot carry attributes; use htc-graph, json or adjlist")
	}
	if nodes == nil {
		nodes = Identity(g.N())
	}
	if err := checkWritableIDs(nodes); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%s %s\n", nodes.ID(int(e[0])), nodes.ID(int(e[1]))); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ---------------------------------------------------------------- adjlist

// adjListFormat reads adjacency lists with optional attributes:
//
//	id: nbr1 nbr2 ... | a0 a1 ...
//
// Every node must head exactly one line (so attribute rows are total);
// the "| attrs" suffix is all-or-nothing across the file. Listing an
// edge from both endpoints is the format's natural redundancy, so
// duplicate edges are always tolerated; Strict still rejects self-loops.
type adjListFormat struct{}

func (adjListFormat) Name() string { return "adjlist" }

func (adjListFormat) Detect(head []byte) bool {
	line := firstDataLine(head)
	if line == "" || strings.HasPrefix(line, "{") {
		return false
	}
	colon := strings.IndexByte(line, ':')
	if colon <= 0 {
		return false
	}
	// The id before the colon must be a single token.
	return len(strings.Fields(line[:colon])) == 1
}

func (adjListFormat) Read(r io.Reader, opts Options) (*Loaded, error) {
	sc := newScanner(r)
	nodes := NewNodeMap()
	headed := make(map[int]bool) // node → has its own adjacency line
	attrs := make(map[int][]float64)
	attrDim := -1 // -1 = undecided, 0 = attr-free file
	var edges [][2]int
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || isComment(line) {
			continue
		}
		colon := strings.IndexByte(line, ':')
		if colon <= 0 {
			return nil, fmt.Errorf("ingest: adjlist line %d: want \"id: neighbours...\", got %q", lineno, line)
		}
		idTok := strings.TrimSpace(line[:colon])
		if len(strings.Fields(idTok)) != 1 {
			return nil, fmt.Errorf("ingest: adjlist line %d: bad node id %q", lineno, idTok)
		}
		rest := line[colon+1:]
		var attrPart string
		hasAttrs := false
		if bar := strings.IndexByte(rest, '|'); bar >= 0 {
			attrPart, rest = rest[bar+1:], rest[:bar]
			hasAttrs = true
		}
		switch {
		case attrDim == -1:
			if hasAttrs {
				attrDim = len(strings.Fields(attrPart))
				if attrDim == 0 {
					return nil, fmt.Errorf("ingest: adjlist line %d: empty attribute block", lineno)
				}
			} else {
				attrDim = 0
			}
		case (attrDim > 0) != hasAttrs:
			return nil, fmt.Errorf("ingest: adjlist line %d: attribute blocks must appear on every line or none", lineno)
		}
		u := nodes.Intern(idTok)
		if headed[u] {
			return nil, fmt.Errorf("ingest: adjlist line %d: node %q heads two lines", lineno, idTok)
		}
		headed[u] = true
		if attrDim > 0 {
			vals := strings.Fields(attrPart)
			if len(vals) != attrDim {
				return nil, fmt.Errorf("ingest: adjlist line %d: %d attributes, want %d", lineno, len(vals), attrDim)
			}
			if opts.MaxAttrDim > 0 && attrDim > opts.MaxAttrDim {
				return nil, fmt.Errorf("ingest: adjlist line %d: %d attribute dims, limit is %d", lineno, attrDim, opts.MaxAttrDim)
			}
			row := make([]float64, attrDim)
			for j, s := range vals {
				v, err := strconv.ParseFloat(s, 64)
				if err != nil {
					return nil, fmt.Errorf("ingest: adjlist line %d: bad attribute %q", lineno, s)
				}
				row[j] = v
			}
			attrs[u] = row
		}
		for _, nbTok := range strings.Fields(rest) {
			v := nodes.Intern(nbTok)
			if u == v {
				if opts.Strict {
					return nil, fmt.Errorf("ingest: adjlist line %d (%q): %w", lineno, line, graph.ErrSelfLoop)
				}
				continue
			}
			edges = append(edges, [2]int{u, v})
			if opts.MaxEdges > 0 && len(edges) > opts.MaxEdges {
				return nil, fmt.Errorf("ingest: adjlist line %d: more than %d edges", lineno, opts.MaxEdges)
			}
		}
		if opts.MaxNodes > 0 && nodes.Len() > opts.MaxNodes {
			return nil, fmt.Errorf("ingest: adjlist line %d: more than %d nodes", lineno, opts.MaxNodes)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ingest: adjlist line %d: %w", lineno+1, err)
	}
	n := nodes.Len()
	if attrDim > 0 {
		for i := 0; i < n; i++ {
			if !headed[i] {
				return nil, fmt.Errorf("ingest: adjlist: node %q is only ever a neighbour, so its attributes are unknown", nodes.ID(i))
			}
		}
	}
	b := graph.NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1]) // mutual listings dedupe here
	}
	g := b.Build()
	if attrDim > 0 {
		x := dense.New(n, attrDim)
		for i := 0; i < n; i++ {
			copy(x.Row(i), attrs[i])
		}
		g = g.WithAttrs(x)
	}
	return &Loaded{Graph: g, Nodes: nodes}, nil
}

func (adjListFormat) Write(w io.Writer, g *graph.Graph, nodes *NodeMap) error {
	if nodes == nil {
		nodes = Identity(g.N())
	}
	if err := checkWritableIDs(nodes); err != nil {
		return err
	}
	attrs := g.Attrs()
	bw := bufio.NewWriter(w)
	for i := 0; i < g.N(); i++ {
		if _, err := fmt.Fprintf(bw, "%s:", nodes.ID(i)); err != nil {
			return err
		}
		// Emitting only the higher-indexed neighbours halves the file;
		// the reader reunites both directions.
		for _, nb := range g.Neighbors(i) {
			if int(nb) > i {
				if _, err := fmt.Fprintf(bw, " %s", nodes.ID(int(nb))); err != nil {
					return err
				}
			}
		}
		if attrs != nil && attrs.Cols > 0 {
			if _, err := bw.WriteString(" |"); err != nil {
				return err
			}
			for _, v := range attrs.Row(i) {
				if _, err := fmt.Fprintf(bw, " %s", strconv.FormatFloat(v, 'g', -1, 64)); err != nil {
					return err
				}
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// checkWritableIDs rejects id dictionaries the line-oriented formats
// cannot represent unambiguously.
func checkWritableIDs(nodes *NodeMap) error {
	if nodes.IsIdentity() {
		return nil
	}
	for i, n := 0, nodes.Len(); i < n; i++ {
		id := nodes.ID(i)
		if id == "" || strings.ContainsAny(id, " \t\n\r:|,") || isComment(id) {
			return fmt.Errorf("ingest: node id %q cannot be written to a line-oriented format", id)
		}
	}
	return nil
}
