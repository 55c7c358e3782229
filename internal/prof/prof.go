// Package prof holds the command-line binaries' shared observability
// output. It wires Go's runtime profilers to command-line flags — both
// binaries expose -cpuprofile, -memprofile and -blockprofile through
// it, so a hot run can be inspected with `go tool pprof` without
// editing the source or wrapping the workload in a test — and writes
// the simulated-time trace files behind -trace and -trace-ndjson.
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

// Flags holds the values of the profiler flags registered by
// RegisterFlags, ready to hand to Start once the flag set is parsed.
type Flags struct {
	CPU, Mem, Block *string
}

// RegisterFlags installs the three standard profiler flags
// (-cpuprofile, -memprofile, -blockprofile) on fs. Both command-line
// binaries share this one definition instead of repeating the flag
// blocks.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	return &Flags{
		CPU:   fs.String("cpuprofile", "", "write a CPU profile to this file"),
		Mem:   fs.String("memprofile", "", "write a heap profile to this file at exit"),
		Block: fs.String("blockprofile", "", "write a blocking profile to this file at exit"),
	}
}

// Start begins the profiles the parsed flags selected; see the
// package-level Start.
func (f *Flags) Start() (stop func(), err error) {
	return Start(*f.CPU, *f.Mem, *f.Block)
}

// Start begins the profiles selected by non-empty paths and returns a
// stop function that must run exactly once before the process exits
// (typically via defer in main). An empty path disables that profiler,
// so Start("", "", "") is a no-op returning a no-op stop.
//
// The CPU profile streams while the workload runs; the heap profile is a
// point-in-time snapshot written at stop after a forced GC, so it shows
// steady-state retention rather than transient garbage; the block
// profile records everything from Start to stop with full sampling
// (rate 1), which is affordable here because the simulator parks on
// channels in a controlled way.
func Start(cpuPath, memPath, blockPath string) (stop func(), err error) {
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
	if blockPath != "" {
		runtime.SetBlockProfileRate(1)
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			writeProfile("heap", memPath, true)
		}
		if blockPath != "" {
			writeProfile("block", blockPath, false)
			runtime.SetBlockProfileRate(0)
		}
	}, nil
}

// writeProfile snapshots a named runtime profile to path, reporting
// failures on stderr rather than aborting: a profile write error at exit
// must not discard the workload's results.
func writeProfile(name, path string, gcFirst bool) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "prof: %v\n", err)
		return
	}
	defer f.Close()
	if gcFirst {
		runtime.GC() // flush recently freed objects out of the heap profile
	}
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		fmt.Fprintf(os.Stderr, "prof: write %s profile: %v\n", name, err)
	}
}

// WriteTraces renders trace recorders to the requested files: a Chrome
// trace-event timeline at chromePath and the raw event stream as NDJSON
// at ndjsonPath. An empty path skips that format. labels[i] names
// recs[i]'s track.
func WriteTraces(chromePath, ndjsonPath string, recs []*trace.Recorder, labels []string) error {
	write := func(path string, render func(w io.Writer) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		bw := bufio.NewWriter(f)
		if err = render(bw); err == nil {
			err = bw.Flush()
		}
		if err2 := f.Close(); err == nil {
			err = err2
		}
		if err != nil {
			return fmt.Errorf("writing %s: %w", path, err)
		}
		return nil
	}
	if chromePath != "" {
		if err := write(chromePath, func(w io.Writer) error { return trace.WriteChrome(w, recs, labels) }); err != nil {
			return err
		}
	}
	if ndjsonPath != "" {
		return write(ndjsonPath, func(w io.Writer) error { return trace.WriteNDJSON(w, recs, labels) })
	}
	return nil
}
