// Package analysistest runs an analyzer over fixture packages and
// checks its diagnostics against // want comments, mirroring the
// golang.org/x/tools/go/analysis/analysistest contract:
//
//	m := map[int]int{}          // want `map iteration`
//
// Each `// want` comment carries one or more backquoted or quoted
// regular expressions; every diagnostic reported on that line must be
// matched by one of them, and every expectation must be consumed by a
// diagnostic. A fixture line that demonstrates legal code simply has
// no want comment — the test fails if the analyzer fires there.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"strings"
	"testing"

	"shrimp/internal/analysis"
	"shrimp/internal/analysis/load"
)

// wantRE matches the expectation comment and captures its pattern
// list: one or more Go-quoted or backquoted strings.
var wantRE = regexp.MustCompile("// want ((?:(?:`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\")\\s*)+)$")

// patRE splits the captured list into individual patterns.
var patRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// expectation is one unmatched want pattern.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
}

// Run loads each fixture package under dir/src and applies a to it,
// comparing diagnostics against the fixtures' want comments. The
// packages share one fact store and are analyzed in the order given,
// so listing a dependency before its importer exercises cross-package
// facts the way registry.Check's dependency order does.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	store := analysis.NewFactStore()
	for _, path := range pkgPaths {
		pkg, err := load.Fixture(dir, path)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
		diags, err := analysis.Run(pkg, []*analysis.Analyzer{a}, store)
		if err != nil {
			t.Fatalf("running %s on %s: %v", a.Name, path, err)
		}
		check(t, pkg, diags)
	}
}

// check matches diagnostics against expectations file by file.
func check(t *testing.T, pkg *analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	expects := collectWants(t, pkg.Fset, pkg.Files)
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		matched := false
		for i, e := range expects {
			if e == nil || e.file != pos.Filename || e.line != pos.Line {
				continue
			}
			if e.re.MatchString(d.Message) {
				expects[i] = nil
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: [%s] %s", pos, d.Analyzer, d.Message)
		}
	}
	for _, e := range expects {
		if e != nil {
			t.Errorf("%s:%d: expected diagnostic matching %q was not reported", e.file, e.line, e.re)
		}
	}
}

// collectWants parses the want comments of every fixture file.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					if strings.Contains(c.Text, "// want ") {
						t.Fatalf("%s: malformed want comment: %s", fset.Position(c.Pos()), c.Text)
					}
					continue
				}
				pos := fset.Position(c.Pos())
				for _, raw := range patRE.FindAllString(m[1], -1) {
					pat := strings.Trim(raw, "`")
					if strings.HasPrefix(raw, `"`) {
						if _, err := fmt.Sscanf(raw, "%q", &pat); err != nil {
							t.Fatalf("%s: bad want pattern %s: %v", pos, raw, err)
						}
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
					}
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return out
}
