// Package analysis is a self-contained, stdlib-only mirror of the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer inspects one
// type-checked package through a Pass and reports Diagnostics. The repo's
// build environment resolves no external modules, so rather than depending
// on x/tools the lint suite carries this small framework — the analyzer
// surface (Name/Doc/Run, Pass, Reportf) matches the upstream API closely
// enough that the analyzers in internal/lint could be ported to a real
// multichecker by swapping imports.
//
// Beyond the upstream shape, a Pass also carries the whole loaded Program:
// the privacy invariants checked here (charge-before-noise) are call-path
// properties that cross package boundaries, which upstream would express
// through Facts. With the full program in hand a cross-package call graph is
// simpler and needs no serialization; Program.Cached memoizes it across the
// per-package passes.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
)

// An Analyzer describes one invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //fmlint:ignore directives. Lowercase, no spaces.
	Name string
	// Doc states the invariant the analyzer guards, first line short.
	Doc string
	// Run inspects pass.Pkg and reports violations via pass.Reportf.
	Run func(pass *Pass) error
}

// A Diagnostic is one reported violation.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Package is one source-typechecked package under analysis.
type Package struct {
	// Path is the import path ("funcmech/internal/serve", or the
	// testdata-relative path like "detfloat/core" in fixtures).
	Path  string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// A Program is the full set of packages loaded for one lint run. Analyzers
// that need cross-package context (call graphs) reach sibling packages here.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package

	mu    sync.Mutex
	cache map[string]any
}

// NewProgram assembles a Program.
func NewProgram(fset *token.FileSet, pkgs []*Package) *Program {
	return &Program{Fset: fset, Packages: pkgs, cache: map[string]any{}}
}

// Cached memoizes a program-wide computation (e.g. the call graph) under
// key. The lock is dropped while build runs so one cached computation may
// depend on another; a rare concurrent duplicate build is harmless.
func (p *Program) Cached(key string, build func() any) any {
	p.mu.Lock()
	if v, ok := p.cache[key]; ok {
		p.mu.Unlock()
		return v
	}
	p.mu.Unlock()
	v := build()
	p.mu.Lock()
	p.cache[key] = v
	p.mu.Unlock()
	return v
}

// A Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	Pkg      *Package
	Fset     *token.FileSet

	report func(Diagnostic)
}

// Reportf reports a violation at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Finding is a resolved diagnostic: position translated, suppressions
// applied, ready to print or assert on.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Run executes every analyzer over every package of prog, applies the
// //fmlint:ignore suppressions, and returns the surviving findings sorted by
// position. Malformed directives (no analyzer name or no justification)
// surface as findings of the pseudo-analyzer "fmlint" — a suppression that
// carries no reason must not silence anything.
func Run(prog *Program, analyzers []*Analyzer) ([]Finding, error) {
	dirs := collectDirectives(prog)
	var out []Finding
	for _, a := range analyzers {
		for _, pkg := range prog.Packages {
			pass := &Pass{Analyzer: a, Prog: prog, Pkg: pkg, Fset: prog.Fset}
			var diags []Diagnostic
			pass.report = func(d Diagnostic) { diags = append(diags, d) }
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.Path, err)
			}
			for _, d := range diags {
				pos := prog.Fset.Position(d.Pos)
				if dirs.suppresses(a.Name, pos) {
					continue
				}
				out = append(out, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
			}
		}
	}
	out = append(out, dirs.malformed...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
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
	return out, nil
}

// IgnorePrefix is the suppression directive: a comment
//
//	//fmlint:ignore <analyzer> <one-line justification>
//
// on the offending line, or on the line directly above it, silences that
// analyzer's diagnostics there. The justification is mandatory.
const IgnorePrefix = "//fmlint:ignore"

type directive struct {
	analyzer string
}

type directiveSet struct {
	// byFileLine maps filename → line → directives on or above that line.
	byFileLine map[string]map[int][]directive
	malformed  []Finding
}

func collectDirectives(prog *Program) *directiveSet {
	ds := &directiveSet{byFileLine: map[string]map[int][]directive{}}
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, IgnorePrefix) {
						continue
					}
					pos := prog.Fset.Position(c.Slash)
					fields := strings.Fields(strings.TrimPrefix(c.Text, IgnorePrefix))
					if len(fields) < 2 {
						ds.malformed = append(ds.malformed, Finding{
							Analyzer: "fmlint",
							Pos:      pos,
							Message:  "fmlint:ignore needs an analyzer name and a one-line justification; nothing is suppressed",
						})
						continue
					}
					m := ds.byFileLine[pos.Filename]
					if m == nil {
						m = map[int][]directive{}
						ds.byFileLine[pos.Filename] = m
					}
					m[pos.Line] = append(m[pos.Line], directive{analyzer: fields[0]})
				}
			}
		}
	}
	return ds
}

func (ds *directiveSet) suppresses(analyzer string, pos token.Position) bool {
	m := ds.byFileLine[pos.Filename]
	if m == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, d := range m[line] {
			if d.analyzer == analyzer {
				return true
			}
		}
	}
	return false
}
