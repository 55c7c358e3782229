package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"shrimp/internal/harness"
)

// TestLoadUsageListsEveryConfig checks the -load usage text names every
// service configuration of the load sweep's grid.
func TestLoadUsageListsEveryConfig(t *testing.T) {
	usage := loadUsage()
	cells := harness.LoadCells(harness.DefaultExperimentConfig())
	if len(cells) == 0 {
		t.Fatal("the load sweep has no cells")
	}
	for _, c := range cells {
		if !strings.Contains(usage, c.Config) {
			t.Errorf("-load usage %q does not list config %s", usage, c.Config)
		}
	}
}

// TestLoadModeWritesProfiles runs shrimpsim -load with every profiler
// flag and checks that each profile file is written: the profilers must
// start before main branches into load mode.
func TestLoadModeWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")

	devnull, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	args, stdout, fs := os.Args, os.Stdout, flag.CommandLine
	defer func() { os.Args, os.Stdout, flag.CommandLine = args, stdout, fs }()
	os.Args = []string{"shrimpsim", "-load", "socket/au", "-nodes", "4", "-quick",
		"-cpuprofile", cpu, "-memprofile", mem}
	os.Stdout = devnull
	flag.CommandLine = flag.NewFlagSet("shrimpsim", flag.ContinueOnError)
	main()

	for _, f := range []string{cpu, mem} {
		st, err := os.Stat(f)
		if err != nil {
			t.Fatalf("-load did not write %s: %v", filepath.Base(f), err)
		}
		if st.Size() == 0 {
			t.Fatalf("-load wrote an empty %s", filepath.Base(f))
		}
	}
}
