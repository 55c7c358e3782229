// Command perfbench is the simulator's standing benchmark. It runs one
// workload for a fixed time from a fresh process, checks every output
// against a reference, and prints one JSON result line:
//
//	perfbench -workload sweep-quick -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it
// runs a separate reference pass and traced pass and reports the
// per-layer metrics. -selfcheck N re-runs the workload N times with
// seeds seed..seed+N-1 and prints each end-to-end metric's median and
// interquartile spread. -ready builds a batch workload's set-up and
// exits; the batch workloads time such processes as setup_s. See
// README.md for the workloads and metrics.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics every workload reports with -trace 0. An
// operation ("op") is one simulation cell on the batch workloads and
// one what-if job on whatif-serve.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics every workload reports with -trace 1. A
// metric of a layer the workload never calls reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"harness.cell_ms.svm", "ms"},
		{"harness.cell_ms.vmmc", "ms"},
		{"harness.cell_ms.nx", "ms"},
		{"harness.cell_ms.sockets", "ms"},
		{"harness.ns_per_sim_msg", "ns"},
		{"harness.load_sim_ms", "ms"},
		{"workload.gen_ms", "ms"},
		{"workload.requests", "count"},
		{"workload.bytes", "bytes"},
		{"workload.sojourn_p99_us", "us"},
		{"server.jobs", "count"},
		{"server.submit_ms", "ms"},
		{"server.first_byte_ms.cold", "ms"},
		{"server.first_byte_ms.hit", "ms"},
		{"server.stream_ms.cold", "ms"},
		{"server.stream_ms.hit", "ms"},
		{"server.cold_job_ms", "ms"},
		{"server.hit_job_ms", "ms"},
		{"server.queue_wait_ms", "ms"},
		{"server.job_ms", "ms"},
		{"twin.answer_ms", "ms"},
		{"resultcache.hit_ratio", "ratio"},
		{"runtime.allocs_per_cell", "count"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_cpu_frac", "ratio"},
	}
	for _, c := range simCounters {
		defs = append(defs, metricDef{c.name, "count"})
	}
	for _, k := range traceKinds {
		defs = append(defs, metricDef{"trace." + k.String(), "count"})
	}
	for _, l := range layers {
		defs = append(defs, metricDef{"cpu_share." + l, "ratio"})
	}
	return append(defs, metricDef{"trace.overhead_frac", "ratio"})
}()

// options are one run's parameters.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	shrimpd  string // daemon binary for whatif-serve
	outDir   string // where traced runs write their spans
}

// outcome is what a workload measured: operation counts, metric
// values by name and, for a traced run, its spans.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	latencySamples    int // samples behind op_p50_ms and op_p90_ms
	spans             *spanLog
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

// fail counts n failed operations and says why on stderr.
func (o *outcome) fail(n int, format string, args ...any) {
	o.failed += n
	fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
}

var workloads = map[string]func(options) (*outcome, error){
	"sweep-quick":  runSweep,
	"load-open":    runLoad,
	"whatif-serve": runServe,
}

// readies build a batch workload's set-up. A process started with
// -ready runs one and exits; the batch workloads time such processes
// as setup_s.
var readies = map[string]func() error{
	"sweep-quick": func() error { _, err := newSweepGrid(); return err },
	"load-open":   func() error { _, err := newLoadGrid(); return err },
}

// maxMeasure caps a run's measuring time when a workload has not yet
// collected enough samples for its tail percentile, so a run always
// ends well inside the three minutes a run may take.
const maxMeasure = 90 * time.Second

func main() {
	var o options
	var traceFlag int
	ready := flag.Bool("ready", false, "build the batch workload's set-up and exit")
	selfcheck := flag.Int("selfcheck", 0, "re-run the workload this many times with consecutive seeds and print each metric's median and spread")
	flag.StringVar(&o.workload, "workload", "", "workload: sweep-quick, load-open or whatif-serve")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 25, "measuring time in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.shrimpd, "shrimpd", ".bench_build/shrimpd", "shrimpd binary for whatif-serve")
	flag.StringVar(&o.outDir, "out", ".bench_out", "directory for the span files of traced runs")
	flag.Parse()
	o.trace = traceFlag == 1

	run, ok := workloads[o.workload]
	if !ok || (traceFlag != 0 && traceFlag != 1) || o.seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload sweep-quick|load-open|whatif-serve -seed N -seconds S -trace 0|1 [-selfcheck N]")
		os.Exit(2)
	}
	var err error
	if *ready {
		setup, ok := readies[o.workload]
		if !ok {
			fmt.Fprintln(os.Stderr, "perfbench: -ready applies to sweep-quick and load-open")
			os.Exit(2)
		}
		err = setup()
	} else if *selfcheck > 0 {
		err = runSelfcheck(o, traceFlag, *selfcheck)
	} else {
		err = runOnce(run, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runOnce runs the workload and prints the run description and the
// result line. The description is gathered after the workload, so
// hashing the sources cannot disturb the set-up the workload times
// first.
func runOnce(run func(options) (*outcome, error), o options) error {
	out, err := run(o)
	if err != nil {
		return err
	}
	info, err := runInfo(o)
	if err != nil {
		return err
	}
	if out.latencySamples > 0 {
		info["latency_samples"] = out.latencySamples
	}
	if err := out.writeSpans(o, info); err != nil {
		return err
	}
	rep, err := buildReport(out, o.trace)
	if err != nil {
		return err
	}
	for _, v := range []any{map[string]any{"run": info}, rep} {
		line, err := json.Marshal(v)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildReport selects the metric set of the run mode. An end-to-end
// metric must have been measured; a per-layer metric the workload did
// not measure reads 0. Values must be finite.
func buildReport(out *outcome, traced bool) (report, error) {
	rep := report{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok && !traced {
			return rep, fmt.Errorf("workload measured no %s", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return rep, fmt.Errorf("metric %s is not finite", d.name)
		}
		rep.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if rep.Attempted < 1 {
		return rep, errors.New("no operation was attempted")
	}
	return rep, nil
}

// runInfo records where and on what the run happened.
func runInfo(o options) (map[string]any, error) {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown"
	}
	src, err := sourceDigest(".")
	if err != nil {
		return nil, err
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"host":       host,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"source":     src,
	}, nil
}

// sourceDigest hashes the simulator's Go sources and go.mod under root,
// which identifies the code measured when the checkout carries no git
// metadata.
func sourceDigest(root string) (string, error) {
	var files []string
	for _, dir := range []string{"cmd", "internal"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && strings.HasSuffix(p, ".go") {
				files = append(files, p)
			}
			return nil
		})
		if err != nil {
			return "", fmt.Errorf("hashing sources: %w", err)
		}
	}
	sort.Strings(files)
	files = append(files, filepath.Join(root, "go.mod"))
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "", fmt.Errorf("hashing sources: %w", err)
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// runSelfcheck runs the workload n times, each in a fresh process with
// the next seed, and prints every metric's median and IQR/median next
// to the bound BENCHMARK.json gives it, when that file is present.
func runSelfcheck(o options, traceFlag, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	bounds := readBounds("BENCHMARK.json")
	values := map[string][]float64{}
	var names []string
	for i := 0; i < n; i++ {
		seed := o.seed + uint64(i)
		cmd := exec.Command(self, "-workload", o.workload, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(traceFlag),
			"-shrimpd", o.shrimpd, "-out", o.outDir)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		var rep report
		if err := json.Unmarshal(lastLine(stdout), &rep); err != nil {
			return fmt.Errorf("seed %d: parsing result: %w", seed, err)
		}
		if !rep.Correct {
			return fmt.Errorf("seed %d: %d of %d operations failed", seed, rep.Failed, rep.Attempted)
		}
		fmt.Printf("seed %d: %s\n", seed, lastLine(stdout))
		for name, m := range rep.Metrics {
			if _, seen := values[name]; !seen {
				names = append(names, name)
			}
			values[name] = append(values[name], m.Value)
		}
	}
	sort.Strings(names)
	fmt.Printf("%-32s %14s %10s %8s\n", "metric", "median", "iqr/med", "bound")
	for _, name := range names {
		b, ok := bounds[name]
		bs := "-"
		if ok {
			bs = strconv.FormatFloat(b, 'g', -1, 64)
		}
		fmt.Printf("%-32s %14.6g %10.4f %8s\n", name, median(values[name]), spread(values[name]), bs)
	}
	return nil
}

// readBounds returns the end-to-end bounds of a BENCHMARK.json file,
// or nothing when the file cannot be read.
func readBounds(path string) map[string]float64 {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(b, &spec) != nil {
		return nil
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}

// lastLine returns the last non-empty line of b.
func lastLine(b []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return lines[len(lines)-1]
}

// mb converts bytes to megabytes.
func mb(b int64) float64 { return float64(b) / (1 << 20) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// msAll converts durations to float milliseconds.
func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
