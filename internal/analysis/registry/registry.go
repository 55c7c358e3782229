// Package registry names the shrimpvet suite in rule-catalog order and
// runs it over a module.
//
// It exists so cmd/shrimpvet and the in-repo self-check test share one
// canonical list and one driver: adding an analyzer here
// simultaneously wires it into the shrimpvet binary, `shrimpvet help`,
// and the tier-1 test that keeps the tree clean.
package registry

import (
	"fmt"
	"go/token"

	"shrimp/internal/analysis"
	"shrimp/internal/analysis/fncontext"
	"shrimp/internal/analysis/hotpath"
	"shrimp/internal/analysis/load"
	"shrimp/internal/analysis/maporder"
	"shrimp/internal/analysis/nogoroutine"
	"shrimp/internal/analysis/ptrdet"
	"shrimp/internal/analysis/seqmachine"
	"shrimp/internal/analysis/tracenil"
	"shrimp/internal/analysis/unseededrand"
	"shrimp/internal/analysis/walltime"
)

// All returns the suite in rule-catalog order (the order findings and
// help text are presented in). The per-function syntactic rules come
// first, then the interprocedural ones; fncontext is the suite's only
// fact exporter, which is why Check shares a FactStore and processes
// packages in analysis.TopoOrder.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		walltime.Analyzer,
		maporder.Analyzer,
		unseededrand.Analyzer,
		nogoroutine.Analyzer,
		hotpath.Analyzer,
		tracenil.Analyzer,
		fncontext.Analyzer,
		seqmachine.Analyzer,
		ptrdet.Analyzer,
	}
}

// Finding is one diagnostic with its position resolved.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// Check runs the whole suite over the packages matching patterns in
// the module at dir. Packages are analyzed in dependency order through
// one shared FactStore, so a dependency's facts exist before its
// importers need them; findings come back in the loader's
// (alphabetical) package order, each package's in source order.
// Patterns that match no package are an error, so a mistyped pattern
// cannot pass as a clean tree.
func Check(dir string, patterns ...string) ([]Finding, error) {
	pkgs, err := load.List(dir, patterns...)
	if err != nil {
		return nil, err
	}
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("no packages match %v in %s", patterns, dir)
	}
	suite := All()
	store := analysis.NewFactStore()
	byPath := make(map[string][]analysis.Diagnostic, len(pkgs))
	for _, pkg := range analysis.TopoOrder(pkgs) {
		diags, err := analysis.Run(pkg, suite, store)
		if err != nil {
			return nil, err
		}
		byPath[pkg.Path] = diags
	}
	var out []Finding
	for _, pkg := range pkgs {
		for _, d := range byPath[pkg.Path] {
			out = append(out, Finding{Pos: pkg.Fset.Position(d.Pos), Analyzer: d.Analyzer, Message: d.Message})
		}
	}
	return out, nil
}
