package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupRepeats is how many fresh processes a batch run starts to time
// its set-up; setup_s is the median, so a slow start does not move it.
const setupRepeats = 15

// timeReady times the batch workload's set-up as a user meets it: it
// execs this benchmark with -ready, which builds the workload's grid in
// a fresh process (runtime and package initialisation included) and
// exits, setupRepeats times, and returns the median time from exec to
// exit in seconds.
func timeReady(o options) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	ds := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		cmd := exec.Command(self, "-workload", o.workload, "-ready")
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return median(ds), nil
}

// selfCPU returns the process's user plus system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// selfMaxRSS returns the process's resident-set high-water mark in
// bytes.
func selfMaxRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024 // Linux reports kilobytes
}

// clockTick is the unit of /proc/<pid>/stat CPU times: USER_HZ, which
// Linux fixes at 100 for every user-space interface.
const clockTick = 10 * time.Millisecond

// procCPU returns another process's user plus system CPU time from
// /proc/<pid>/stat, in clock-tick resolution.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	// Fields 14 and 15 of the file (utime, stime) follow the
	// parenthesised command name as the 12th and 13th fields.
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// rtSample is a snapshot of the Go runtime counters the per-layer
// runtime metrics are deltas of.
type rtSample struct {
	allocs, gcCycles uint64
	gcCPU, totalCPU  float64
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{allocs: u(0), gcCycles: u(1), gcCPU: f(2), totalCPU: f(3)}
}

// runtimeMetrics stores the runtime deltas between two samples, with
// allocations per simulation cell.
func runtimeMetrics(out *outcome, before, after rtSample, cells int) {
	if cells > 0 {
		out.metrics["runtime.allocs_per_cell"] = float64(after.allocs-before.allocs) / float64(cells)
	}
	out.metrics["runtime.gc_cycles"] = float64(after.gcCycles - before.gcCycles)
	if d := after.totalCPU - before.totalCPU; d > 0 {
		out.metrics["runtime.gc_cpu_frac"] = (after.gcCPU - before.gcCPU) / d
	}
}

// latencyMetrics stores the op latency median and p90 of samples. The
// caller guarantees enough samples for the p90 (tailOK).
func latencyMetrics(out *outcome, samples []time.Duration) {
	v := msAll(samples)
	out.metrics["op_p50_ms"] = percentile(v, 50)
	out.metrics["op_p90_ms"] = percentile(v, 90)
	out.latencySamples = len(v)
}
