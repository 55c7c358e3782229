// Command shrimpbench regenerates every table and figure of "Design
// Choices in the SHRIMP System: An Empirical Study" (ISCA 1998) on the
// simulated SHRIMP machine.
//
// Independent simulation cells (app x variant x node-count) run on a
// worker pool; -parallel controls its width. Results are collected by
// cell index, so output is deterministic and byte-identical whatever the
// worker count — including trace exports, which are stamped with
// simulated time only.
//
// Usage:
//
//	shrimpbench [-exp list|all|table1|figure3|figure4svm|figure4audu|table2|
//	             table3|table4|combining|fifo|duqueue|perpacket|latency|load]
//	            [-nodes N] [-quick] [-parallel N] [-json]
//	            [-trace FILE] [-trace-ndjson FILE] [-trace-filter KINDS]
//	            [-trace-max N] [-metrics]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"shrimp/internal/harness"
	"shrimp/internal/machine"
	"shrimp/internal/prof"
	"shrimp/internal/trace"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (comma separated; \"list\" prints the catalog)")
	nodes := flag.Int("nodes", 16, "machine size (the paper's system is 16 nodes)")
	quick := flag.Bool("quick", false, "use tiny problem sizes (fast smoke run)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"simulation cells to run concurrently (1 = serial; results are identical either way)")
	jsonOut := flag.Bool("json", false, "emit one JSON object per table/figure row instead of text")
	twin := flag.Bool("twin", false,
		"evaluate the selected experiments with the analytical twin only (no simulation)")
	calibrate := flag.Bool("calibrate", false,
		"run every registry experiment through twin and simulator and report MAPE + rank correlation")
	twinSearch := flag.String("twin-search", "",
		"twin-guided knob search for this app (e.g. \"radix-vmmc\" or \"ocean-nx/du\"): "+
			"the twin scans the knob grid, the simulator confirms the top quarter")
	profFlags := prof.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if *nodes < 1 || *nodes > machine.MaxNodes {
		fmt.Fprintf(os.Stderr, "shrimpbench: -nodes %d outside 1..%d\n", *nodes, machine.MaxNodes)
		os.Exit(2)
	}

	if *exp == "list" {
		harness.PrintCatalog(os.Stdout)
		return
	}

	stopProf, err := profFlags.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "shrimpbench: %v\n", err)
		os.Exit(1)
	}
	defer stopProf()

	cfg := harness.DefaultExperimentConfig()
	cfg.Nodes = *nodes
	cfg.Workers = *parallel
	if *quick {
		cfg.Workloads = harness.QuickWorkloads()
	}

	// Trace collection: every cell records; recorders arrive at the sink
	// in cell order, so the exports are byte-identical for any -parallel.
	var recs []*trace.Recorder
	var labels []string
	curExp := ""
	if cfg.Trace, err = profFlags.Trace(); err != nil {
		fmt.Fprintf(os.Stderr, "shrimpbench: %v\n", err)
		os.Exit(2)
	}
	if cfg.Trace != nil {
		cfg.TraceSink = func(cell harness.Spec, rec *trace.Recorder) {
			recs = append(recs, rec)
			labels = append(labels, curExp+"/"+cell.Label())
		}
	}

	if *calibrate {
		rep := harness.Calibrate(cfg)
		if *jsonOut {
			if err := harness.EmitJSON(os.Stdout, "calibration", rep.Rows); err != nil {
				fmt.Fprintf(os.Stderr, "shrimpbench: %v\n", err)
				os.Exit(1)
			}
			return
		}
		harness.PrintCalibration(os.Stdout, rep)
		return
	}
	if *twinSearch != "" {
		runTwinSearch(cfg, *twinSearch, *jsonOut)
		return
	}

	selected := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		selected[strings.TrimSpace(e)] = true
	}
	// Hidden experiments (the load family) run only when named: "all"
	// keeps meaning the golden-pinned paper sweep.
	want := func(e harness.Experiment) bool {
		return selected[e.Name] || (selected["all"] && !e.Hidden)
	}
	ran := false
	w := io.Writer(os.Stdout)

	if !*jsonOut {
		fmt.Fprintf(w, "SHRIMP design-choice evaluation — %d nodes, workloads: %s\n",
			cfg.Nodes, cfg.Workloads.Note)
	}

	// Each selected experiment runs through the shared registry and is
	// rendered as a pretty table normally, or newline-delimited JSON
	// records under -json.
	for _, e := range harness.Experiments() {
		if !want(e) {
			continue
		}
		ran = true
		curExp = e.Name
		if *twin {
			rows, err := harness.TwinRows(cfg, e)
			if err != nil {
				fmt.Fprintf(os.Stderr, "shrimpbench: %v\n", err)
				os.Exit(1)
			}
			if *jsonOut {
				if err := harness.EmitJSON(w, "twin-"+e.Name, rows); err != nil {
					fmt.Fprintf(os.Stderr, "shrimpbench: %v\n", err)
					os.Exit(1)
				}
				continue
			}
			harness.PrintTwinRows(w, e, rows)
			continue
		}
		rows := e.Run(cfg)
		if *jsonOut {
			if err := harness.EmitJSON(w, e.Name, rows); err != nil {
				fmt.Fprintf(os.Stderr, "shrimpbench: %v\n", err)
				os.Exit(1)
			}
			continue
		}
		e.Print(w, cfg, rows)
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "shrimpbench: unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}

	if profFlags.Metrics() {
		for i, rec := range recs {
			fmt.Fprintln(w)
			trace.WriteSummary(w, rec, labels[i])
		}
	}
	if err := profFlags.WriteTraces(recs, labels); err != nil {
		fmt.Fprintf(os.Stderr, "shrimpbench: %v\n", err)
		os.Exit(1)
	}
}

// runTwinSearch performs a twin-guided knob search for one app: the
// analytical twin scans the full what-if knob grid, the simulator
// confirms only the top quarter.
func runTwinSearch(cfg harness.Config, target string, jsonOut bool) {
	name, variant, _ := strings.Cut(target, "/")
	app, err := harness.ParseApp(name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "shrimpbench: %v\n", err)
		os.Exit(2)
	}
	v := harness.DefaultVariant(app)
	if pv, ok, err := harness.ParseVariant(variant); err != nil {
		fmt.Fprintf(os.Stderr, "shrimpbench: %v\n", err)
		os.Exit(2)
	} else if ok {
		v = pv
	}
	cells := harness.SearchGrid(app, v, cfg.Nodes)
	res, err := harness.TwinGuidedSearch(cfg, cells, 0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "shrimpbench: %v\n", err)
		os.Exit(1)
	}
	if jsonOut {
		if err := harness.EmitJSON(os.Stdout, "twin-search", res.Ranked); err != nil {
			fmt.Fprintf(os.Stderr, "shrimpbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	harness.PrintSearch(os.Stdout, fmt.Sprintf("%s/%s/n%d", app, v, cfg.Nodes), res)
}
