package main

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tracesOutput is `go tool pprof -traces` output in the toolchain's
// layout: a header, then one block per sample, leaf first.
const tracesOutput = `File: perfbench
Type: cpu
Duration: 1s, Total samples = 1s (100.00%)
-----------+-------------------------------------------------------
      10ms   shrimp/internal/sim.(*Engine).Run
             main.main
             runtime.main
-----------+-------------------------------------------------------
      20ms   runtime.mallocgc
             shrimp/internal/sim.(*Engine).Run
             main.main
             runtime.main
-----------+-------------------------------------------------------
       5ms   runtime.mallocgc
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      15ms   sort.Slice
             shrimp/internal/sim.(*Engine).Run
             runtime.main
-----------+-------------------------------------------------------
      30ms   shrimp/internal/nic.(*NIC).rx (inline)
             shrimp/internal/sim.(*Engine).Run
             runtime.goexit
-----------+-------------------------------------------------------
      10ms   net/http.(*conn).serve
             runtime.goexit
-----------+-------------------------------------------------------
       3ms   crypto/sha256.block
             main.runOnce
             main.main
             runtime.main
-----------+-------------------------------------------------------
       2ms   main.main
             runtime.main
-----------+-------------------------------------------------------
       5ms   shrimp/internal/apps/radix.(*worker).sortLocal.func1
             runtime.goexit
`

func TestFoldTracesByPackage(t *testing.T) {
	shares, err := foldTraces(strings.NewReader(tracesOutput))
	if err != nil {
		t.Fatal(err)
	}
	// sim: its own frame, and sort called from it; runtime_other: an
	// allocation leaf; runtime_gc: any collector frame; nic: the inlined
	// innermost frame; other: the benchmark's own code and packages
	// without a layer that it calls, never the runtime.main root.
	want := map[string]float64{"sim": 0.25, "runtime_other": 0.2, "runtime_gc": 0.05,
		"nic": 0.3, "net_http": 0.1, "other": 0.05, "apps": 0.05}
	for _, l := range layers {
		if math.Abs(shares[l]-want[l]) > 1e-12 {
			t.Errorf("share[%s] = %v, want %v", l, shares[l], want[l])
		}
	}
}

func TestSampleLayerRuntime(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"bytes.(*Buffer).Write", "main.main", "runtime.main"}, "other"},
		{[]string{"runtime.memmove", "bytes.(*Buffer).Write", "main.main", "runtime.main"}, "runtime_other"},
		{[]string{"runtime.main"}, "runtime_other"},
		{[]string{"sort.insertionSort", "shrimp/internal/svm.(*Home).diff", "runtime.goexit"}, "svm"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
	} {
		if got := sampleLayer(c.stack); got != c.want {
			t.Errorf("sampleLayer(%q) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestParseSampleValue(t *testing.T) {
	for s, want := range map[string]float64{
		"10ms": 10e6, "1.20s": 1.2e9, "250µs": 250e3, "7ns": 7, "1.50mins": 90e9, "2hrs": 7200e9,
	} {
		got, err := parseSampleValue(s)
		if err != nil || math.Abs(got-want) > 1e-3 {
			t.Errorf("parseSampleValue(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"", "ms", "10", "10xs"} {
		if _, err := parseSampleValue(s); err == nil {
			t.Errorf("parseSampleValue(%q) accepted", s)
		}
	}
}

func TestFoldRealProfile(t *testing.T) {
	var sink uint64
	shares, err := cpuProfile(filepath.Join(t.TempDir(), "cpu.pb.gz"), func() error {
		for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
			for i := 0; i < 1000; i++ {
				sink += uint64(i) * sink
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, s := range shares {
		total += s
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("shares sum to %v, want 1 (%v)", total, shares)
	}
	if shares["other"] < 0.5 {
		t.Errorf("a busy loop in package main folded to other=%v, want most of the time", shares["other"])
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"shrimp/internal/sim.(*Engine).Run":       "shrimp/internal/sim",
		"runtime.mallocgc":                        "runtime",
		"net/http.(*conn).serve":                  "net/http",
		"shrimp/internal/apps/radix.worker.func1": "shrimp/internal/apps/radix",
		"encoding/json.(*encodeState).marshal":    "encoding/json",
		"shrimp/cmd/shrimpd.main":                 "shrimp/cmd/shrimpd",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}
