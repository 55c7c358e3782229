package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
)

// layers are the buckets a CPU profile folds into: the simulator's
// packages, the standard-library layers shrimpd spends time in, the
// garbage collector, the rest of the runtime, and everything else.
var layers = []string{
	"sim", "mesh", "nic", "machine", "memory", "vmmc", "ring", "svm", "nx",
	"socketlib", "rpc", "apps", "workload", "checkpoint", "harness",
	"resultcache", "server", "twin", "net_http", "encoding_json",
	"runtime_gc", "runtime_other", "other",
}

// packageLayer maps a Go package path to its layer, or "" for a
// package that belongs to no layer of its own (the runtime, other
// standard-library packages, the trace recorder, the benchmark
// itself), whose time goes to the nearest caller that does.
func packageLayer(pkg string) string {
	switch {
	case strings.HasPrefix(pkg, "shrimp/internal/apps/"), pkg == "shrimp/internal/bsp":
		return "apps"
	case strings.HasPrefix(pkg, "shrimp/internal/"):
		name := strings.TrimPrefix(pkg, "shrimp/internal/")
		for _, l := range layers {
			if l == name {
				return l
			}
		}
		return ""
	case pkg == "shrimp/cmd/shrimpd":
		return "server"
	case pkg == "net/http" || strings.HasPrefix(pkg, "net/http/"):
		return "net_http"
	case pkg == "encoding/json":
		return "encoding_json"
	}
	return ""
}

// funcPackage extracts the package path from a symbol name such as
// "shrimp/internal/sim.(*Engine).Run" or "runtime.mallocgc".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// gcFrame reports whether a runtime frame belongs to the garbage
// collector: background and assisting mark work, sweeping and
// scavenging.
func gcFrame(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.sweepone", "runtime.markroot", "runtime.scanobject", "runtime.(*gcWork)",
		"runtime.(*mspan).sweep", "runtime.(*sweepLocked)"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// sampleLayer attributes one stack (leaf first) to a layer: to the
// collector when any frame is collector work, to runtime_other when the
// leaf is other runtime code, and otherwise to the innermost frame
// whose package has a layer. Runtime frames above the leaf (runtime.main,
// runtime.goexit) never claim a sample.
func sampleLayer(stack []string) string {
	for _, fn := range stack {
		if gcFrame(fn) {
			return "runtime_gc"
		}
	}
	if len(stack) > 0 && funcPackage(stack[0]) == "runtime" {
		return "runtime_other"
	}
	for _, fn := range stack {
		if l := packageLayer(funcPackage(fn)); l != "" {
			return l
		}
	}
	return "other"
}

// foldTraces reads the output of `go tool pprof -traces` and returns
// each layer's share of the sampled CPU time. Each sample is a block
// after a "-----------+" separator: its value and leaf function on the
// first line, one caller per line after it.
func foldTraces(r io.Reader) (map[string]float64, error) {
	totals := map[string]float64{}
	var sum, value float64
	var stack []string
	flush := func() {
		if len(stack) > 0 {
			totals[sampleLayer(stack)] += value
			sum += value
		}
		stack = stack[:0]
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	inSample := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inSample = true
			continue
		}
		if !inSample || strings.TrimSpace(line) == "" {
			continue
		}
		fn := strings.TrimSpace(line)
		if len(stack) == 0 {
			v, rest, ok := strings.Cut(fn, " ")
			if !ok {
				return nil, fmt.Errorf("profile: malformed sample line %q", line)
			}
			var err error
			if value, err = parseSampleValue(v); err != nil {
				return nil, err
			}
			fn = strings.TrimSpace(rest)
		}
		stack = append(stack, strings.TrimSuffix(fn, " (inline)"))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	flush()
	shares := map[string]float64{}
	for _, l := range layers {
		shares[l] = 0
		if sum > 0 {
			shares[l] = totals[l] / sum
		}
	}
	return shares, nil
}

// sampleUnits are the time units pprof prints sample values in.
var sampleUnits = []struct {
	suffix string
	ns     float64
}{
	// Longer suffixes first: "mins" also ends in "ns" and "s".
	{"mins", 60e9}, {"hrs", 3600e9}, {"ns", 1}, {"us", 1e3}, {"µs", 1e3}, {"ms", 1e6}, {"s", 1e9},
}

// parseSampleValue converts a pprof sample value such as "10ms" or
// "1.20s" to nanoseconds.
func parseSampleValue(s string) (float64, error) {
	for _, u := range sampleUnits {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				break
			}
			return v * u.ns, nil
		}
	}
	return 0, fmt.Errorf("profile: malformed sample value %q", s)
}

// cpuProfile runs fn under the runtime CPU profiler, writes the profile
// to path and returns the layer shares of the time fn took, folded from
// the toolchain's `go tool pprof -traces`.
func cpuProfile(path string, fn func() error) (map[string]float64, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return nil, err
	}
	ferr := fn()
	pprof.StopCPUProfile()
	if ferr != nil {
		return nil, ferr
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	var stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	cmd.Stderr = &stderr
	text, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	return foldTraces(bytes.NewReader(text))
}
