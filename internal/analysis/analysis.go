// Package analysis hosts htc-lint: project-specific static analyzers
// that turn this repository's determinism, worker-budget and
// config-threading conventions into machine-checked contracts.
//
// The reproduction's core guarantee — bit-identical results at any
// worker count, across the dense/topk/ann backends — rests on rules no
// compiler enforces: a `workers int` parameter must actually reach the
// parallel stage it budgets, map iteration must never feed
// order-sensitive accumulation, every `core.Config` knob must be
// validated and cache-keyed, and every `metric`-tagged collector must
// name an htc_-prefixed series and be incremented somewhere (the
// rendering walks the tagged fields, so exposure needs no check). Each
// rule here has shipped at least one real bug (ANNCandidates once ran
// serial because its workers argument was silently dropped), so they
// are checked by machine, not review.
//
// The package deliberately mirrors the golang.org/x/tools/go/analysis
// vocabulary — Analyzer, Pass, Diagnostic, analysistest-style fixtures
// with `// want` comments — but is built on the standard library alone:
// the build environment is offline, so the x/tools module cannot be
// fetched. If that dependency ever becomes available, each analyzer's
// Run function ports to a real go/analysis.Analyzer mechanically.
//
// Deliberate exceptions are annotated in the source under review:
//
//	//lint:allow <analyzer> <reason>
//
// A directive suppresses that analyzer's diagnostics on its own line,
// or — when it is a standalone comment (or part of a doc-comment
// block) — on the first code line after the block. The reason is
// mandatory; a directive without one, or one naming an unknown
// analyzer, is itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one invariant checker. Exactly one of Run
// (per-package) and RunProgram (whole-program, for cross-package
// contracts like knobcover) is set.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and directives.
	Name string
	// Doc is the one-paragraph contract description shown by -list.
	Doc string
	// Run, when set, checks one package at a time.
	Run func(*Pass) error
	// RunProgram, when set, checks the whole loaded package set at
	// once; analyzers whose contract spans packages use this form.
	RunProgram func(*ProgramPass) error
}

// A Package is one loaded, parsed and type-checked package.
type Package struct {
	// Path is the package's import path.
	Path string
	// Dir is the directory its files were read from.
	Dir string
	// Fset maps positions; it is shared by every package of one load.
	Fset *token.FileSet
	// Files are the parsed sources, comments included.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the type-checker's fact tables (Defs, Uses,
	// Selections, Scopes, Types).
	Info *types.Info
	// src maps a file name to its raw source lines, 0-indexed; the
	// directive scanner uses it to tell standalone comment lines from
	// trailing ones.
	src map[string][]string
}

// Sources returns the package's raw source lines per file name —
// analysistest scans them for `// want` expectations.
func (p *Package) Sources() map[string][]string { return p.src }

// A Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// A Pass carries one package through one per-package analyzer.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	diags    *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A ProgramPass carries the whole loaded package set through one
// whole-program analyzer.
type ProgramPass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Packages []*Package
	diags    *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes the analyzers over the loaded packages and returns the
// surviving diagnostics — findings suppressed by a well-formed
// //lint:allow directive are dropped, malformed or unknown directives
// are reported — sorted by position. An analyzer returning an error
// aborts the run: analyzer bugs must not pass for clean code.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		switch {
		case a.Run != nil:
			for _, pkg := range pkgs {
				if err := a.Run(&Pass{Analyzer: a, Pkg: pkg, diags: &diags}); err != nil {
					return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
				}
			}
		case a.RunProgram != nil:
			if len(pkgs) == 0 {
				continue
			}
			pass := &ProgramPass{Analyzer: a, Fset: pkgs[0].Fset, Packages: pkgs, diags: &diags}
			if err := a.RunProgram(pass); err != nil {
				return nil, fmt.Errorf("%s: %w", a.Name, err)
			}
		default:
			return nil, fmt.Errorf("analyzer %s has no Run function", a.Name)
		}
	}
	dirs, dirDiags := collectDirectives(pkgs, analyzers)
	kept := dirDiags
	for _, d := range diags {
		if !dirs.suppresses(d) {
			kept = append(kept, d)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return kept, nil
}
