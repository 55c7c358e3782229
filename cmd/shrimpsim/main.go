// Command shrimpsim runs one or more applications on the simulated
// SHRIMP machine under a chosen configuration and reports execution
// time, the per-category time breakdown, and communication counters.
//
// Several applications may be named (comma separated); their independent
// simulations run concurrently on a worker pool (-parallel) and are
// reported in the order given, so output does not depend on the worker
// count.
//
// Usage:
//
//	shrimpsim -app barnes-svm|ocean-svm|radix-svm|radix-vmmc|
//	               barnes-nx|ocean-nx|dfs|render[,app...]
//	          [-nodes N] [-variant au|du] [-protocol hlrc|hlrc-au|aurc]
//	          [-syscall] [-intmsg] [-nocombine] [-fifo bytes] [-duqueue N]
//	          [-parallel N] [-quick] [-twin]
//	          [-trace FILE] [-trace-ndjson FILE] [-trace-filter KINDS]
//	          [-trace-max N] [-metrics]
//
// -twin answers from the analytical twin (internal/twin composed by
// the harness predictor) instead of running the DES — microseconds of
// arithmetic instead of seconds of simulation, calibrated cell by cell
// against the simulator (see shrimpbench -calibrate).
//
// Alternatively, -load drives a service with open-loop traffic
// (internal/workload) instead of running a batch application:
//
//	shrimpsim -load CONFIG [-offered MULT] [-nodes N] [-quick] [-twin]
//	          [-load-record FILE | -load-replay FILE]
//
// where CONFIG is one of the load family's service configurations
// (shrimpsim -h lists them).
// -load-record writes the generated request trace to FILE before
// replaying it; -load-replay skips generation and replays a previously
// recorded artifact (byte-identical report, by construction).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"shrimp/internal/harness"
	"shrimp/internal/machine"
	"shrimp/internal/prof"
	"shrimp/internal/stats"
	"shrimp/internal/trace"
	"shrimp/internal/workload"
)

func main() {
	appList := flag.String("app", "", "application(s) to run, comma separated")
	nodes := flag.Int("nodes", 16, "machine size")
	variant := flag.String("variant", "", "au or du (default: the app's best)")
	protocol := flag.String("protocol", "", "SVM protocol: hlrc, hlrc-au, aurc")
	syscall := flag.Bool("syscall", false, "charge a system call per message send (Table 2)")
	intmsg := flag.Bool("intmsg", false, "interrupt on every arriving message (Table 4)")
	nocombine := flag.Bool("nocombine", false, "disable automatic-update combining")
	fifo := flag.Int("fifo", 0, "outgoing FIFO bytes (0 = default 32 KB)")
	duq := flag.Int("duqueue", 0, "deliberate-update queue depth (0 = default 1)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"apps to simulate concurrently when several are named")
	quick := flag.Bool("quick", false, "use tiny problem sizes")
	twinMode := flag.Bool("twin", false,
		"predict with the analytical twin instead of simulating (closed form, no DES)")
	loadConfig := flag.String("load", "", loadUsage())
	offered := flag.Float64("offered", 1, "offered-load multiplier for -load")
	loadRecord := flag.String("load-record", "", "write the generated request trace to this file (-load)")
	loadReplay := flag.String("load-replay", "", "replay a recorded request trace from this file (-load)")
	profFlags := prof.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if *nodes < 1 || *nodes > machine.MaxNodes {
		fmt.Fprintf(os.Stderr, "shrimpsim: -nodes %d outside 1..%d\n", *nodes, machine.MaxNodes)
		os.Exit(2)
	}

	stopProf, err := profFlags.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "shrimpsim: %v\n", err)
		os.Exit(1)
	}
	defer stopProf()

	if *loadConfig != "" {
		runLoad(*loadConfig, *nodes, *offered, *quick, *twinMode, *loadRecord, *loadReplay)
		return
	}

	traceOpts, err := profFlags.Trace()
	if err != nil {
		fmt.Fprintf(os.Stderr, "shrimpsim: %v\n", err)
		os.Exit(2)
	}

	var knobs harness.Knobs
	if *syscall {
		knobs.SyscallPerSend = ptr(true)
	}
	if *intmsg {
		knobs.InterruptPerMessage = ptr(true)
	}
	if *nocombine {
		knobs.Combining = ptr(false)
	}
	if *fifo > 0 {
		knobs.OutFIFOBytes = ptr(*fifo)
		knobs.FIFOThresholdBytes = ptr(*fifo * 3 / 4)
		knobs.FIFOLowWaterBytes = ptr(*fifo / 4)
	}
	if *duq > 0 {
		knobs.DUQueueDepth = ptr(*duq)
	}

	var cells []harness.Spec
	for _, name := range strings.Split(*appList, ",") {
		spec, err := harness.CellSpec{App: name, Nodes: *nodes, Variant: *variant,
			Protocol: *protocol, Knobs: knobs}.Compile()
		if err != nil {
			fmt.Fprintf(os.Stderr, "shrimpsim: %v\n", err)
			os.Exit(2)
		}
		spec.Trace = traceOpts
		cells = append(cells, spec)
	}

	wl := harness.DefaultWorkloads()
	if *quick {
		wl = harness.QuickWorkloads()
	}
	if *twinMode {
		tp := harness.NewPredictor(&wl)
		for i, spec := range cells {
			if i > 0 {
				fmt.Println()
			}
			fmt.Printf("%s on %d nodes (%s)\n", spec.App, *nodes, wl.SizeString(spec.App))
			fmt.Printf("twin predicted time: %v (analytical, no simulation)\n", tp.PredictSpec(spec))
		}
		return
	}
	results := harness.RunCells(context.Background(), cells, &wl,
		harness.CellRunOpts{Workers: *parallel})

	for i, spec := range cells {
		if i > 0 {
			fmt.Println()
		}
		report(spec.App, *nodes, &wl, results[i])
		if profFlags.Metrics() && results[i].Trace != nil {
			fmt.Println()
			trace.WriteSummary(os.Stdout, results[i].Trace, cells[i].Label())
		}
	}

	if traceOpts != nil {
		var recs []*trace.Recorder
		var labels []string
		for i := range results {
			if results[i].Trace != nil {
				recs = append(recs, results[i].Trace)
				labels = append(labels, cells[i].Label())
			}
		}
		if err := profFlags.WriteTraces(recs, labels); err != nil {
			fmt.Fprintf(os.Stderr, "shrimpsim: %v\n", err)
			os.Exit(1)
		}
	}
}

func ptr[T any](v T) *T { return &v }

// loadUsage is the -load flag's usage text, listing every service
// configuration the harness declares.
func loadUsage() string {
	return "drive a service with open-loop traffic instead of -app (" +
		strings.Join(harness.LoadConfigs(), ", ") + ")"
}

// runLoad executes one open-loop load cell: generate (or replay) the
// request trace, drive the service, print the report.
func runLoad(config string, nodes int, offered float64, quick, twinMode bool, record, replay string) {
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "shrimpsim: %v\n", err)
		os.Exit(1)
	}
	if record != "" && replay != "" {
		fail(fmt.Errorf("-load-record and -load-replay are mutually exclusive"))
	}
	params := harness.DefaultLoadParams()
	if quick {
		params = harness.QuickLoadParams()
	}
	cell := harness.LoadCell{Config: config, Nodes: nodes, Offered: offered, Params: params}

	if twinMode {
		rows, err := cell.Predict()
		if err != nil {
			fail(err)
		}
		e, _ := harness.FindExperiment("load")
		harness.PrintTwinRows(os.Stdout, e, rows)
		return
	}

	var tr *workload.Trace
	if replay != "" {
		f, err := os.Open(replay)
		if err != nil {
			fail(err)
		}
		tr, err = workload.Decode(bufio.NewReader(f))
		f.Close()
		if err != nil {
			fail(err)
		}
		if tr.Nodes != nodes {
			fail(fmt.Errorf("trace %s was recorded for %d nodes; pass -nodes %d", replay, tr.Nodes, tr.Nodes))
		}
	} else {
		var err error
		if tr, err = cell.GenerateTrace(); err != nil {
			fail(err)
		}
		if record != "" {
			f, err := os.Create(record)
			if err != nil {
				fail(err)
			}
			err = tr.Encode(f)
			if err2 := f.Close(); err == nil {
				err = err2
			}
			if err != nil {
				fail(fmt.Errorf("writing %s: %w", record, err))
			}
			fmt.Printf("recorded %d requests to %s\n", len(tr.Reqs), record)
		}
	}

	rows, err := harness.RunLoadTrace(cell, tr)
	if err != nil {
		fail(err)
	}
	cfg := harness.DefaultExperimentConfig()
	cfg.Nodes = nodes
	harness.PrintLoad(os.Stdout, cfg, rows)
}

func report(app harness.App, nodes int, wl *harness.Workloads, res harness.Result) {
	fmt.Printf("%s on %d nodes (%s)\n", app, nodes, wl.SizeString(app))
	fmt.Printf("execution time: %v\n", res.Elapsed)
	fmt.Println("time breakdown (all nodes):")
	total := res.Breakdown.Total()
	for c := stats.Category(0); c < stats.NumCategories; c++ {
		fmt.Printf("  %-10s %12v  (%5.1f%%)\n", c, res.Breakdown[c],
			100*float64(res.Breakdown[c])/float64(total))
	}
	c := res.Counters
	fmt.Println("counters:")
	fmt.Printf("  messages sent     %12d\n", c.MessagesSent)
	fmt.Printf("  notifications     %12d\n", c.Notifications)
	fmt.Printf("  interrupts        %12d\n", c.Interrupts)
	fmt.Printf("  syscalls          %12d\n", c.Syscalls)
	fmt.Printf("  AU stores/packets %12d / %d\n", c.AUStores, c.AUPackets)
	fmt.Printf("  DU transfers      %12d\n", c.DUTransfers)
	fmt.Printf("  bytes sent        %12d\n", c.BytesSent)
	fmt.Printf("  page faults       %12d (fetched %d)\n", c.PageFaults, c.PagesFetched)
	fmt.Printf("  diffs created     %12d\n", c.DiffsCreated)
	fmt.Printf("  FIFO high water   %12d bytes\n", res.FIFOHigh)
}
