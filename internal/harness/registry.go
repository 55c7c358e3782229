package harness

import (
	"fmt"
	"io"
)

// Experiment is one entry of the evaluation catalog: a named
// experiment that reproduces a table or figure of the paper. The
// registry is the single source shared by shrimpbench (-exp selection,
// -exp list) and shrimpd (GET /v1/experiments, named-experiment jobs),
// so an experiment added here is simultaneously a CLI experiment and a
// service job type.
type Experiment struct {
	// Name is the CLI/API identifier ("table1", "figure3", ...).
	Name string
	// Desc is the one-line catalog description.
	Desc string
	// Cells returns the cell grid the experiment simulates, as
	// serializable specs (nil for experiments not built from cells —
	// the latency microbenchmark and the load family). Run executes
	// exactly this grid, so Cells is also the experiment's cache
	// footprint.
	Cells func(cfg Config) []CellSpec
	// Run executes the experiment and returns its typed row slice,
	// suitable for EmitJSON.
	Run func(cfg Config) any
	// Print renders the rows as the human-readable report table.
	Print func(w io.Writer, cfg Config, rows any)
	// Hidden excludes the experiment from "-exp all" (and the implied
	// golden sweep) while keeping it addressable by name. New experiment
	// families start hidden so their output is pinned by their own
	// digests instead of perturbing the long-lived all-sweep ones.
	Hidden bool
	// twin evaluates the experiment with the analytical twin.
	twin twinEval
}

// twinEval is the twin's counterpart of Run and Print: rows predicts
// the experiment without simulating (TwinRows), print renders them
// (PrintTwinRows), and pairs scores them against the simulator
// (Calibrate).
type twinEval struct {
	rows  func(cfg Config, tp *Predictor) (any, error)
	print func(w io.Writer, rows any)
	pairs func(cfg Config, tp *Predictor) []CalibPair
}

// gridExperiment registers a grid experiment. g is its one declaration:
// it builds the cells and the row builder for their results, so Cells,
// Run and the twin evaluation cannot drift apart.
func gridExperiment[R any](name, desc string, g func(Config) ([]CellSpec, func([]Result) R), print func(io.Writer, Config, R)) Experiment {
	cells := func(cfg Config) []CellSpec {
		cells, _ := g(cfg)
		return cells
	}
	return Experiment{
		Name:  name,
		Desc:  desc,
		Cells: cells,
		Run:   func(cfg Config) any { return runGrid(cfg, g) },
		Print: func(w io.Writer, cfg Config, rows any) { print(w, cfg, rows.(R)) },
		twin: twinEval{
			rows:  func(cfg Config, tp *Predictor) (any, error) { return predictCells(tp, cells(cfg)) },
			print: printTwinRows,
			pairs: func(cfg Config, tp *Predictor) []CalibPair { return calibrateCells(tp, cfg, cells(cfg)) },
		},
	}
}

// runGrid simulates a grid experiment's cells and builds its rows.
func runGrid[R any](cfg Config, g func(Config) ([]CellSpec, func([]Result) R)) R {
	cells, rows := g(cfg)
	return rows(cfg.runCells(cells))
}

// rowsOnly adapts a printer that needs no Config.
func rowsOnly[R any](print func(io.Writer, R)) func(io.Writer, Config, R) {
	return func(w io.Writer, _ Config, rows R) { print(w, rows) }
}

// experimentList is the catalog in report order.
var experimentList = []Experiment{
	{
		Name: "latency",
		Desc: "§4.1/§4.2 microbenchmarks: DU/AU message latency and send overhead",
		Run:  func(cfg Config) any { return Latency() },
		Print: func(w io.Writer, cfg Config, rows any) {
			PrintLatency(w, rows.(LatencyResult))
		},
		twin: twinEval{rows: predictLatency, print: printTwinRows, pairs: calibrateLatency},
	},
	gridExperiment("table1", "Table 1: applications, problem sizes, sequential execution times",
		table1, func(w io.Writer, cfg Config, rows []Table1Row) {
			PrintTable1(w, rows, &cfg.Workloads)
		}),
	gridExperiment("figure3", "Figure 3: speedup curves, better of AU/DU per application",
		figure3, rowsOnly(PrintFigure3)),
	gridExperiment("figure4svm", "Figure 4 (left): HLRC vs HLRC-AU vs AURC protocol comparison",
		figure4SVM, rowsOnly(PrintFigure4SVM)),
	gridExperiment("figure4audu", "Figure 4 (right): automatic vs deliberate update per application",
		figure4AUDU, rowsOnly(PrintFigure4AUDU)),
	gridExperiment("table2", "Table 2: cost of a kernel trap on every message send",
		table2, func(w io.Writer, _ Config, rows []WhatIfRow) {
			PrintWhatIf(w, "Table 2: system call per message send", rows)
		}),
	gridExperiment("table3", "Table 3: notification counts vs total messages",
		table3, rowsOnly(PrintTable3)),
	gridExperiment("table4", "Table 4: cost of an interrupt on every arriving message",
		table4, func(w io.Writer, _ Config, rows []WhatIfRow) {
			PrintWhatIf(w, "Table 4: interrupt per arriving message", rows)
		}),
	gridExperiment("combining", "§4.5.1: automatic-update combining on vs off",
		combining, rowsOnly(PrintCombining)),
	gridExperiment("fifo", "§4.5.2: outgoing FIFO capacity, 32 KB vs 1 KB",
		fifo, rowsOnly(PrintFIFO)),
	gridExperiment("duqueue", "§4.5.3: deliberate-update request queue, depth 1 vs 2",
		duQueue, rowsOnly(PrintDUQueue)),
	{
		Name:   "load",
		Desc:   "Open-loop traffic: goodput vs offered load per service class (internal/workload)",
		Hidden: true,
		Run:    func(cfg Config) any { return LoadSweep(cfg) },
		Print: func(w io.Writer, cfg Config, rows any) {
			PrintLoad(w, cfg, rows.([]LoadRow))
		},
		twin: twinEval{rows: predictLoad, print: printTwinLoad, pairs: calibrateLoad},
	},
	gridExperiment("perpacket", "Extension (§4.4): interrupt per packet vs per message",
		perPacket, rowsOnly(PrintPerPacket)),
}

// Experiments returns the catalog in report order. The slice is shared;
// callers must not mutate it.
func Experiments() []Experiment { return experimentList }

// PrintCatalog lists the registry in report order, marking hidden
// experiments (excluded from "-exp all"; run only when named).
func PrintCatalog(w io.Writer) {
	hidden := false
	for _, e := range experimentList {
		name := e.Name
		if e.Hidden {
			name += "*"
			hidden = true
		}
		fmt.Fprintf(w, "%-12s %s\n", name, e.Desc)
	}
	if hidden {
		fmt.Fprintf(w, "%-12s %s\n", "*", "hidden: excluded from -exp all, run by name")
	}
}

// FindExperiment looks an experiment up by name.
func FindExperiment(name string) (Experiment, bool) {
	for _, e := range experimentList {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}
