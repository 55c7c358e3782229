package analysis

import (
	"encoding/json"
	"fmt"
	"sort"
)

// FactStore holds package-level facts: one JSON-encoded value per
// (package, analyzer) pair. Facts are how interprocedural analyzers
// (fncontext) see across package boundaries without dependency ASTs:
// when a package is analyzed, its fact-exporting analyzers serialize
// what downstream packages need (which functions can block, which
// parameters are continuation roots), and analyses of importing
// packages read those summaries back.
//
// Facts are stored JSON-encoded and decoded afresh on every import, so
// each importing package gets its own copy of a summary: an analysis
// that mutates what it imported cannot corrupt the exporter's record
// or what the next importer sees.
type FactStore struct {
	// pkgs maps package import path -> analyzer name -> encoded fact.
	pkgs map[string]map[string]json.RawMessage
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{pkgs: map[string]map[string]json.RawMessage{}}
}

// set records the fact for (path, analyzer), replacing any previous
// value.
func (s *FactStore) set(path, analyzer string, fact any) error {
	data, err := json.Marshal(fact)
	if err != nil {
		return fmt.Errorf("encoding %s fact for %s: %w", analyzer, path, err)
	}
	m := s.pkgs[path]
	if m == nil {
		m = map[string]json.RawMessage{}
		s.pkgs[path] = m
	}
	m[analyzer] = data
	return nil
}

// get decodes the fact for (path, analyzer) into out, reporting
// whether one was present.
func (s *FactStore) get(path, analyzer string, out any) bool {
	data, ok := s.pkgs[path][analyzer]
	if !ok {
		return false
	}
	return json.Unmarshal(data, out) == nil
}

// ImportPackageFact decodes the fact the current analyzer exported for
// the package at path into out, reporting whether one exists. Analyzers
// see only their own facts: the analyzer name is part of the key.
func (p *Pass) ImportPackageFact(path string, out any) bool {
	if p.store == nil {
		return false
	}
	return p.store.get(path, p.Analyzer.Name, out)
}

// ExportPackageFact records fact as the current analyzer's summary of
// the package under analysis, for analyses of importing packages.
func (p *Pass) ExportPackageFact(fact any) error {
	if p.store == nil {
		return nil // fact-free invocation (e.g. single-package fixture)
	}
	return p.store.set(p.Pkg.Path(), p.Analyzer.Name, fact)
}

// TopoOrder returns pkgs sorted so that every package follows the
// packages it imports, restricted to the given set; ties (and the
// DFS visit order) break by import path, so the order is
// deterministic. Fact-consuming callers analyze in this order so that
// a package's facts exist before its importers need them; reporting
// order is the caller's business and unchanged.
func TopoOrder(pkgs []*Package) []*Package {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Types.Path()] = p
	}
	paths := make([]string, 0, len(pkgs))
	for _, p := range pkgs {
		paths = append(paths, p.Types.Path())
	}
	sort.Strings(paths)
	out := make([]*Package, 0, len(pkgs))
	seen := make(map[string]bool, len(pkgs))
	var visit func(path string)
	visit = func(path string) {
		pkg, ok := byPath[path]
		if !ok || seen[path] {
			return
		}
		seen[path] = true
		imps := pkg.Types.Imports()
		ipaths := make([]string, 0, len(imps))
		for _, imp := range imps {
			ipaths = append(ipaths, imp.Path())
		}
		sort.Strings(ipaths)
		for _, ip := range ipaths {
			visit(ip)
		}
		out = append(out, pkg)
	}
	for _, path := range paths {
		visit(path)
	}
	return out
}
