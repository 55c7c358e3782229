package analysis

import (
	"os"
	"path/filepath"
	"testing"
)

// TestBoundaryClassification pins the sim-side / host-side boundary:
// simulated-machine packages are sim-side, serving infrastructure is
// host-side, the harness and CLI glue are neither, and no package is
// ever both (the two answers must never overlap, or "may this code
// observe the host?" stops being a one-lookup question). Every key of
// both maps must name an existing directory, so deleting a package
// cannot leave a stale entry behind.
func TestBoundaryClassification(t *testing.T) {
	cases := []struct {
		path      string
		sim, host bool
	}{
		{"shrimp/internal/sim", true, false},
		{"shrimp/internal/mesh", true, false},
		{"shrimp/internal/svm", true, false},
		{"shrimp/internal/apps/barnes", true, false},
		{"shrimp/internal/trace", true, false},
		{"shrimp/internal/workload", true, false},
		{"shrimp/internal/twin", true, false},

		{"shrimp/internal/server", false, true},
		{"shrimp/internal/server/sub", false, true},
		{"shrimp/internal/resultcache", false, true},
		{"shrimp/cmd/shrimpd", false, true},

		{"shrimp/internal/harness", false, false},
		{"shrimp/internal/prof", false, false},
		{"shrimp/internal/analysis", false, false},
		{"shrimp/cmd/shrimpbench", false, false},
		{"shrimp/cmd/shrimpsim", false, false},
		{"fmt", false, false},
		{"net/http", false, false},
		// Similar names outside the module must not match.
		{"othermod/internal/server", false, false},
		{"othermod/internal/sim", false, false},
	}
	for _, c := range cases {
		if got := IsSimSide(c.path); got != c.sim {
			t.Errorf("IsSimSide(%q) = %v, want %v", c.path, got, c.sim)
		}
		if got := IsHostSide(c.path); got != c.host {
			t.Errorf("IsHostSide(%q) = %v, want %v", c.path, got, c.host)
		}
	}
	for p := range hostSidePkgs {
		if IsSimSide(modulePrefix + p) {
			t.Errorf("package %q classified both sim-side and host-side", p)
		}
	}

	// The test runs in internal/analysis: simSidePkgs keys are relative
	// to internal/, hostSidePkgs keys to the module root.
	for p := range simSidePkgs {
		requireDir(t, filepath.Join("..", p))
	}
	for p := range hostSidePkgs {
		requireDir(t, filepath.Join("..", "..", p))
	}
}

func requireDir(t *testing.T, dir string) {
	t.Helper()
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Errorf("boundary entry %s names no package directory", dir)
	}
}
