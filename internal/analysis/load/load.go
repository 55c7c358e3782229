// Package load turns Go packages into the parsed, type-checked form
// the analysis framework consumes, using only the standard library and
// the go command itself.
//
// Two loaders exist because the suite checks two kinds of source:
//
//   - List loads real module packages. It shells out to `go list
//     -export -deps`, which compiles nothing twice: every
//     dependency's type information comes from the build cache as gc
//     export data. This is the path of registry.Check, so of both the
//     shrimpvet binary and the self-check test.
//
//   - Fixture type-checks an analysistest fixture tree
//     (testdata/src/<importpath>/...) from source, resolving fixture
//     imports within the tree and everything else (time, fmt,
//     math/rand) through the build cache.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"shrimp/internal/analysis"
)

// listPkg is the subset of `go list -json` output the loaders consume.
type listPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Export     string
	DepOnly    bool
	Error      *struct{ Err string }
}

// goList runs `go list -export -json` in dir over args and decodes the
// package stream.
func goList(dir string, args ...string) ([]*listPkg, error) {
	cmd := exec.Command("go", append([]string{"list", "-e", "-export",
		"-json=ImportPath,Dir,GoFiles,CgoFiles,Export,DepOnly,Error"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// newInfo returns a types.Info with every map the analyzers consult.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Instances:  map[*ast.Ident]types.Instance{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// gcImporter adapts gc export-data files to the types.Importer
// interface: resolve maps an import path to the file holding its
// export data (a build-cache entry or a .a archive).
func gcImporter(fset *token.FileSet, resolve func(path string) (string, error)) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		file, err := resolve(path)
		if err != nil {
			return nil, err
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// List loads the packages matching patterns (relative to dir, the
// module root) ready for analysis. Dependencies are imported from
// build-cache export data, so only the matched packages are parsed.
func List(dir string, patterns ...string) ([]*analysis.Package, error) {
	pkgs, err := goList(dir, append([]string{"-deps"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	var targets []*listPkg
	for _, p := range pkgs {
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	imp := gcImporter(fset, func(path string) (string, error) {
		if f, ok := exports[path]; ok {
			return f, nil
		}
		return "", fmt.Errorf("no export data for %q", path)
	})
	var out []*analysis.Package
	for _, t := range targets {
		if len(t.CgoFiles) > 0 {
			return nil, fmt.Errorf("%s: cgo packages are not supported", t.ImportPath)
		}
		pkg, err := typeCheck(fset, t.ImportPath, t.Dir, t.GoFiles, imp)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// typeCheck parses files (named relative to dir) and type-checks them
// as one package.
func typeCheck(fset *token.FileSet, path, dir string, files []string, imp types.Importer) (*analysis.Package, error) {
	var parsed []*ast.File
	for _, name := range files {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, f)
	}
	info := newInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, parsed, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	return &analysis.Package{
		Path:  path,
		Fset:  fset,
		Files: parsed,
		Types: tpkg,
		Info:  info,
	}, nil
}

// fixtureLoader resolves imports for a testdata fixture tree.
type fixtureLoader struct {
	root string // the directory containing src/
	fset *token.FileSet
	std  types.Importer
	srcs map[string]*types.Package
}

// Import implements types.Importer: fixture packages come from source
// under root/src, anything else from the build cache.
func (l *fixtureLoader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.srcs[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(l.root, "src", filepath.FromSlash(path))
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		pkg, err := l.loadSource(path, dir)
		if err != nil {
			return nil, err
		}
		l.srcs[path] = pkg.Types
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

func (l *fixtureLoader) loadSource(path, dir string) (*analysis.Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, e.Name())
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("fixture %s: no Go files in %s", path, dir)
	}
	sort.Strings(files)
	return typeCheck(l.fset, path, dir, files, l)
}

// Fixture loads the fixture package at import path within root (the
// directory containing the conventional src/ tree).
func Fixture(root, path string) (*analysis.Package, error) {
	fset := token.NewFileSet()
	stdExports := map[string]string{}
	l := &fixtureLoader{
		root: root,
		fset: fset,
		srcs: map[string]*types.Package{},
	}
	l.std = gcImporter(fset, func(path string) (string, error) {
		if f, ok := stdExports[path]; ok {
			return f, nil
		}
		pkgs, err := goList(root, path)
		if err != nil {
			return "", err
		}
		for _, p := range pkgs {
			if p.Export != "" {
				stdExports[p.ImportPath] = p.Export
			}
		}
		if f, ok := stdExports[path]; ok {
			return f, nil
		}
		return "", fmt.Errorf("no export data for %q", path)
	})
	dir := filepath.Join(root, "src", filepath.FromSlash(path))
	return l.loadSource(path, dir)
}
