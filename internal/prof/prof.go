// Package prof holds the command-line binaries' shared observability
// flags and output. It wires Go's runtime profilers to command-line
// flags — both binaries expose -cpuprofile and -memprofile through
// it, so a hot run can be inspected with `go tool pprof` without editing the source or wrapping the workload
// in a test — and defines the simulated-time trace flags (-trace,
// -trace-ndjson, -trace-filter, -trace-max, -metrics), turning them
// into recorder options and writing the trace files.
package prof

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"shrimp/internal/trace"
)

// Flags holds the values of the flags registered by RegisterFlags,
// ready to use once the flag set is parsed.
type Flags struct {
	cpu, mem               *string
	chrome, ndjson, filter *string
	maxEvents              *int
	metrics                *bool
}

// RegisterFlags installs the standard profiler flags (-cpuprofile,
// -memprofile) and the simulated-time trace flags
// (-trace, -trace-ndjson, -trace-filter, -trace-max, -metrics) on fs.
// Both command-line binaries share this one definition instead of
// repeating the flag blocks.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	return &Flags{
		cpu:       fs.String("cpuprofile", "", "write a CPU profile to this file"),
		mem:       fs.String("memprofile", "", "write a heap profile to this file at exit"),
		chrome:    fs.String("trace", "", "write a Chrome trace-event JSON timeline of every cell to this file"),
		ndjson:    fs.String("trace-ndjson", "", "write the raw trace event stream as NDJSON to this file"),
		filter:    fs.String("trace-filter", "", "comma-separated event kinds to trace (default: all)"),
		maxEvents: fs.Int("trace-max", 1<<20, "max trace events kept per cell (0 = unlimited)"),
		metrics:   fs.Bool("metrics", false, "print per-cell latency histograms and link utilization"),
	}
}

// Trace returns the recorder options the trace flags select, or nil
// when no trace file and no metrics were requested. The error reports
// an unknown event kind in -trace-filter.
func (f *Flags) Trace() (*trace.Options, error) {
	if *f.chrome == "" && *f.ndjson == "" && !*f.metrics {
		return nil, nil
	}
	mask, err := trace.ParseFilter(*f.filter)
	if err != nil {
		return nil, err
	}
	return &trace.Options{Filter: mask, MaxEvents: *f.maxEvents}, nil
}

// Metrics reports whether -metrics asked for the per-cell summaries.
func (f *Flags) Metrics() bool { return *f.metrics }

// Start begins the profiles selected by non-empty paths and returns a
// stop function that must run exactly once before the process exits
// (typically via defer in main). With no profiler flag set it is a
// no-op returning a no-op stop.
//
// The CPU profile streams while the workload runs; the heap profile is a
// point-in-time snapshot written at stop after a forced GC, so it shows
// steady-state retention rather than transient garbage.
func (f *Flags) Start() (stop func(), err error) {
	cpuPath, memPath := *f.cpu, *f.mem
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("prof: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("prof: start cpu profile: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			writeHeapProfile(memPath)
		}
	}, nil
}

// writeHeapProfile writes the heap profile to path, reporting failures
// on stderr rather than aborting: a profile write error at exit must
// not discard the workload's results.
func writeHeapProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "prof: %v\n", err)
		return
	}
	defer f.Close()
	runtime.GC() // flush recently freed objects out of the heap profile
	if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
		fmt.Fprintf(os.Stderr, "prof: write heap profile: %v\n", err)
	}
}

// WriteTraces renders trace recorders to the files the flags name: a
// Chrome trace-event timeline for -trace and the raw event stream as
// NDJSON for -trace-ndjson. An unset flag skips that format.
// labels[i] names recs[i]'s track.
func (f *Flags) WriteTraces(recs []*trace.Recorder, labels []string) error {
	write := func(path string, render func(w io.Writer) error) error {
		out, err := os.Create(path)
		if err != nil {
			return err
		}
		bw := bufio.NewWriter(out)
		if err = render(bw); err == nil {
			err = bw.Flush()
		}
		if err2 := out.Close(); err == nil {
			err = err2
		}
		if err != nil {
			return fmt.Errorf("writing %s: %w", path, err)
		}
		return nil
	}
	if *f.chrome != "" {
		if err := write(*f.chrome, func(w io.Writer) error { return trace.WriteChrome(w, recs, labels) }); err != nil {
			return err
		}
	}
	if *f.ndjson != "" {
		return write(*f.ndjson, func(w io.Writer) error { return trace.WriteNDJSON(w, recs, labels) })
	}
	return nil
}
