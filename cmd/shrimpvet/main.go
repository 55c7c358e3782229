// Shrimpvet is the repo's determinism and hot-path vet suite: nine
// analyzers that enforce, at compile time, the invariants every
// experiment number depends on at run time — six per-function
// syntactic rules and three interprocedural ones (continuation safety,
// Seq machine shape, pointer-identity leaks).
//
//	shrimpvet ./...              # analyze packages, print findings
//	shrimpvet -sarif out.json ./...  # also write a SARIF 2.1.0 report
//	shrimpvet help               # list the rules
//
// Packages are loaded with `go list -export` and analyzed in-process
// in dependency order, so the interprocedural layer's package facts
// exist before their importers read them. Exit status is 0 for a clean
// tree, 1 for findings and 2 for an operational error. See
// docs/shrimpvet.md for the rule catalog and the suppression syntax.
package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"shrimp/internal/analysis/registry"
)

const progname = "shrimpvet"

func main() {
	os.Exit(run(".", os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command over the module at dir: it prints each
// finding with its file named relative to dir, writes the SARIF
// report when asked, and returns the exit status.
func run(dir string, args []string, stdout, stderr io.Writer) int {
	sarifPath := ""
	if len(args) >= 2 && args[0] == "-sarif" {
		sarifPath = args[1]
		args = args[2:]
	}
	if len(args) == 1 && args[0] == "help" {
		printHelp(stdout)
		return 0
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	findings, err := registry.Check(dir, args...)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", progname, err)
		return 2
	}
	root, _ := filepath.Abs(dir)
	for i := range findings {
		if rel, err := filepath.Rel(root, findings[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			findings[i].Pos.Filename = rel
		}
		fmt.Fprintf(stdout, "%s: [%s] %s\n", findings[i].Pos, findings[i].Analyzer, findings[i].Message)
	}
	if sarifPath != "" {
		if err := writeSARIF(sarifPath, findings); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", progname, err)
			return 2
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stdout, "%s: %d finding(s)\n", progname, len(findings))
		return 1
	}
	return 0
}

func printHelp(w io.Writer) {
	fmt.Fprintf(w, "%s: static checks for the SHRIMP simulator's determinism and hot-path invariants\n\n", progname)
	fmt.Fprintf(w, "usage: %s [-sarif out.json] [package pattern ...]   (default ./...)\n\nrules:\n", progname)
	for _, a := range registry.All() {
		fmt.Fprintf(w, "  %-14s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintf(w, "\nsuppress a finding with a justified directive on or above the line:\n")
	fmt.Fprintf(w, "  //lint:ignore <rule> <why this is safe>\n")
	fmt.Fprintf(w, "\nsee docs/shrimpvet.md for the full catalog and rationale.\n")
}
