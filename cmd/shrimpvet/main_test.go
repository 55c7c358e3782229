package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The fixture is a module of its own (module shrimp) whose
// internal/sim package reads the host clock once, in clock.go.
const fixture = "testdata/mod"

// TestFindingsAndSARIF runs the command over the fixture: one walltime
// finding, exit status 1, and a SARIF report with that one result.
func TestFindingsAndSARIF(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the fixture module with go list -export")
	}
	sarifPath := filepath.Join(t.TempDir(), "out.sarif")
	var stdout, stderr bytes.Buffer
	if code := run(fixture, []string{"-sarif", sarifPath, "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit status %d, want 1\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	const wantPrefix = "internal/sim/clock.go:7:9: [walltime] "
	if len(lines) != 2 || !strings.HasPrefix(lines[0], wantPrefix) || lines[1] != "shrimpvet: 1 finding(s)" {
		t.Fatalf("stdout:\n%s\nwant one line starting %q, then the finding count", &stdout, wantPrefix)
	}

	data, err := os.ReadFile(sarifPath)
	if err != nil {
		t.Fatal(err)
	}
	var log sarifLog
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatalf("SARIF report is not JSON: %v", err)
	}
	if len(log.Runs) != 1 || len(log.Runs[0].Results) != 1 {
		t.Fatalf("SARIF report has %d runs, want one run with one result:\n%s", len(log.Runs), data)
	}
	res := log.Runs[0].Results[0]
	loc := res.Locations[0].PhysicalLocation
	if res.RuleID != "walltime" || loc.ArtifactLocation.URI != "internal/sim/clock.go" ||
		loc.Region.StartLine != 7 || loc.Region.StartColumn != 9 {
		t.Errorf("SARIF result = %s at %s:%d:%d, want walltime at internal/sim/clock.go:7:9",
			res.RuleID, loc.ArtifactLocation.URI, loc.Region.StartLine, loc.Region.StartColumn)
	}
}

// TestCleanModule runs the command over the fixture without clock.go:
// no output and exit status 0.
func TestCleanModule(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the fixture module with go list -export")
	}
	dir := t.TempDir()
	for _, name := range []string{"go.mod", "internal/sim/sim.go"} {
		data, err := os.ReadFile(filepath.Join(fixture, name))
		if err != nil {
			t.Fatal(err)
		}
		dst := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run(dir, nil, &stdout, &stderr); code != 0 || stdout.Len() != 0 {
		t.Fatalf("exit status %d, want 0\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
}
