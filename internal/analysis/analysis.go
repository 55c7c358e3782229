// Package analysis is a minimal, dependency-free re-implementation of
// the golang.org/x/tools/go/analysis vocabulary: an Analyzer inspects
// one type-checked package through a Pass and reports Diagnostics.
//
// The repo builds its own framework instead of importing x/tools so
// that the vet suite needs nothing beyond the standard library — the
// simulator itself has no third-party dependencies, and its linter
// should not be the first. The API mirrors x/tools closely enough that
// the analyzers could be ported to the real framework by changing
// imports, should the dependency ever be acceptable.
//
// The nine analyzers live in subpackages: the per-function rules
// walltime, maporder, unseededrand, nogoroutine, hotpath and tracenil,
// and the interprocedural rules fncontext, seqmachine and ptrdet. The registry subpackage lists them and runs them over a
// module; cmd/shrimpvet is the command around it. See
// docs/shrimpvet.md for the rule catalog.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static-analysis rule.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore directives. It must be a valid identifier.
	Name string
	// Doc is the one-paragraph description shown by `shrimpvet help`.
	Doc string
	// Run applies the analyzer to one package, reporting findings
	// through pass.Report/Reportf.
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// report receives each diagnostic as it is emitted.
	report func(Diagnostic)
	// store holds package facts across the whole run; nil for
	// fact-free invocations.
	store *FactStore
}

// Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Report emits a diagnostic.
func (p *Pass) Report(d Diagnostic) {
	d.Analyzer = p.Analyzer.Name
	p.report(d)
}

// Reportf emits a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// InTestFile reports whether pos lies in a _test.go file. The suite
// checks shipped simulator code; tests may legitimately spawn
// goroutines, read wall clocks (benchmark plumbing), or iterate maps.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// Package is the unit handed to Run: a parsed, type-checked package.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Run applies each analyzer to pkg and returns the surviving
// diagnostics in source order, with //lint:ignore suppressions applied.
// store carries package facts across packages: fact-exporting
// analyzers record their summaries in it, and read back the facts of
// previously analyzed dependencies. Callers analyzing several
// packages should share one store and process packages in TopoOrder;
// nil means a fact-free run (single-package fixtures, fact-free
// suites).
func Run(pkg *Package, analyzers []*Analyzer, store *FactStore) ([]Diagnostic, error) {
	ig := collectIgnores(pkg.Fset, pkg.Files)
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			store:     store,
			report: func(d Diagnostic) {
				if !ig.suppresses(pkg.Fset, d) {
					out = append(out, d)
				}
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out, nil
}

// ignoreKey addresses one suppressed (file, line).
type ignoreKey struct {
	file string
	line int
}

// ignoreSet records //lint:ignore directives by position.
type ignoreSet struct {
	// byLine maps the directive's own line to the analyzer names it
	// suppresses ("*" suppresses all). A directive covers its own line
	// and the following line, so it can sit above the flagged
	// statement or trail the flagged expression.
	byLine map[ignoreKey][]string
}

// collectIgnores scans file comments for suppression directives of the
// form:
//
//	//lint:ignore <analyzer>[,<analyzer>...] <justification>
//
// A justification is mandatory: a bare directive suppresses nothing
// (the analyzers exist because "trust me" is how determinism bugs
// shipped historically).
func collectIgnores(fset *token.FileSet, files []*ast.File) *ignoreSet {
	ig := &ignoreSet{byLine: map[ignoreKey][]string{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:ignore ")
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				if len(fields) < 2 {
					continue // no justification: directive is inert
				}
				pos := fset.Position(c.Pos())
				key := ignoreKey{file: pos.Filename, line: pos.Line}
				ig.byLine[key] = append(ig.byLine[key], strings.Split(fields[0], ",")...)
			}
		}
	}
	return ig
}

// suppresses reports whether d is covered by a directive on its own
// line or the line above.
func (ig *ignoreSet) suppresses(fset *token.FileSet, d Diagnostic) bool {
	pos := fset.Position(d.Pos)
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, name := range ig.byLine[ignoreKey{file: pos.Filename, line: line}] {
			if name == d.Analyzer || name == "*" {
				return true
			}
		}
	}
	return false
}
