package harness

import (
	"context"
	"fmt"
	"slices"

	"shrimp/internal/sim"
	"shrimp/internal/svm"
	"shrimp/internal/trace"
)

// paperRadixAUFactor is Figure 4 (right)'s AU-over-DU speedup factor
// for Radix-VMMC. The per-app reference values are appDecls' paper
// fields.
const paperRadixAUFactor = 3.4

// Config controls an evaluation sweep.
type Config struct {
	Nodes     int // the paper's system is 16 nodes
	Workloads Workloads
	// Workers is the number of simulation cells run concurrently by each
	// experiment (0 = GOMAXPROCS, 1 = serial). Whatever the value,
	// results are deterministic and identical to a serial run: cells are
	// independent simulations collected by index.
	Workers int
	// Trace, when non-nil, attaches a recorder to every cell the sweep
	// runs (cells that already request their own tracing keep it).
	Trace *trace.Options
	// TraceSink receives each traced cell's recorder after its
	// experiment's cells complete, in cell order — deterministic for any Workers
	// setting. Nil discards the recorders.
	TraceSink func(cell Spec, rec *trace.Recorder)
	// Cache, when non-nil, is consulted for every cell before it is
	// simulated and populated afterwards (see CellCache). Traced sweeps
	// bypass it. Because simulation output is byte-deterministic, a hit
	// is indistinguishable from a fresh run — the parallel-equals-serial
	// tests hold with or without a cache attached.
	Cache CellCache
	// Ctx cancels an in-flight sweep at the next cell boundary (nil =
	// run to completion). Rows computed from a cancelled sweep are
	// meaningless — unstarted cells read as zero — so callers must check
	// Ctx.Err() before using any experiment's rows.
	Ctx context.Context
}

// DefaultExperimentConfig mirrors the paper's 16-node system.
func DefaultExperimentConfig() Config {
	return Config{Nodes: 16, Workloads: DefaultWorkloads()}
}

// ---- Grid layout ---------------------------------------------------------
//
// Every table and figure below is one grid function: it builds the
// experiment's cells and returns the row builder for their results,
// closing over the same locals, so the layout is declared once. The
// registry derives Experiment.Cells and Experiment.Run from it (see
// gridExperiment and runGrid).

// appGrid lays out an app-major grid: cells(a) lists each app's cells,
// and row(a, res) turns that app's results, in the same order, into its
// row. No experiment walks result indexes itself.
func appGrid[R any](apps []App, cells func(App) []CellSpec, row func(App, []Result) R) ([]CellSpec, func([]Result) []R) {
	var all []CellSpec
	start := make([]int, len(apps)+1)
	for i, a := range apps {
		all = append(all, cells(a)...)
		start[i+1] = len(all)
	}
	return all, func(res []Result) []R {
		rows := make([]R, len(apps))
		for i, a := range apps {
			rows[i] = row(a, res[start[i]:start[i+1]])
		}
		return rows
	}
}

// knobCells builds one cell per knob set, each a copy of base.
func knobCells(base CellSpec, knobs ...Knobs) []CellSpec {
	cells := make([]CellSpec, len(knobs))
	for i, k := range knobs {
		cells[i] = base
		cells[i].Knobs = k
	}
	return cells
}

// defaultCell is app a on n nodes in its default variant.
func defaultCell(a App, n int) CellSpec {
	return CellSpec{App: a.String(), Nodes: n, Variant: DefaultVariant(a).String()}
}

func percentIncrease(base, mod sim.Time) float64 {
	return (float64(mod) - float64(base)) / float64(base) * 100
}

// ---- Table 1 ------------------------------------------------------------

// Table1Row is one application's characteristics.
type Table1Row struct {
	App      App
	API      string
	Size     string
	SeqTime  sim.Time
	PaperSec float64 // -1 when illegible in the source text
}

// table1 measures sequential (single-node) execution times: every
// application at one node.
func table1(cfg Config) ([]CellSpec, func([]Result) []Table1Row) {
	return appGrid(AllApps(), func(a App) []CellSpec {
		nodes := 1
		if a == OceanNX {
			// Ocean-NX does not run on a uniprocessor in the paper; the
			// two-node time is given, and we follow suit.
			nodes = 2
		}
		return []CellSpec{defaultCell(a, nodes)}
	}, func(a App, res []Result) Table1Row {
		return Table1Row{App: a, API: a.API(), Size: cfg.Workloads.SizeString(a),
			SeqTime: res[0].Elapsed, PaperSec: appDecls[a].paper.seqTime}
	})
}

// ---- Figure 3 -----------------------------------------------------------

// Figure3Curve is one application's speedup curve.
type Figure3Curve struct {
	App      App
	Variant  Variant
	Nodes    []int
	Speedups []float64
}

// figure3 measures speedup curves, plotting the better of the AU and DU
// versions as the paper does: one cell per (app, machine size up to
// cfg.Nodes), the 1-node run doubling as the base.
func figure3(cfg Config) ([]CellSpec, func([]Result) []Figure3Curve) {
	points := []int{1}
	for _, n := range []int{2, 4, 8, 16} {
		if n <= cfg.Nodes {
			points = append(points, n)
		}
	}
	apps := []App{OceanNX, RadixVMMC, BarnesNX, RadixSVM, OceanSVM, BarnesSVM}
	return appGrid(apps, func(a App) []CellSpec {
		cells := make([]CellSpec, len(points))
		for i, n := range points {
			cells[i] = defaultCell(a, n)
		}
		return cells
	}, func(a App, res []Result) Figure3Curve {
		c := Figure3Curve{App: a, Variant: DefaultVariant(a), Nodes: slices.Clone(points)}
		for _, r := range res {
			c.Speedups = append(c.Speedups, float64(res[0].Elapsed)/float64(r.Elapsed))
		}
		return c
	})
}

// ---- Figure 4 (left): SVM protocol comparison ---------------------------

// Figure4SVMRow is one (application, protocol) bar.
type Figure4SVMRow struct {
	App       App
	Protocol  svm.Protocol
	Elapsed   sim.Time
	Breakdown [5]float64 // normalized to the HLRC total
}

// figure4SVM compares HLRC, HLRC-AU and AURC on the three SVM
// applications.
func figure4SVM(cfg Config) ([]CellSpec, func([]Result) []Figure4SVMRow) {
	protos := []svm.Protocol{svm.HLRC, svm.HLRCAU, svm.AURC} // HLRC, the base, first
	cells, perApp := appGrid([]App{BarnesSVM, OceanSVM, RadixSVM}, func(a App) []CellSpec {
		cells := make([]CellSpec, len(protos))
		for i, p := range protos {
			cells[i] = CellSpec{App: a.String(), Nodes: cfg.Nodes, Protocol: p.String()}
		}
		return cells
	}, func(a App, res []Result) []Figure4SVMRow {
		base := float64(res[0].Elapsed)
		rows := make([]Figure4SVMRow, len(res))
		for i, r := range res {
			rows[i] = Figure4SVMRow{App: a, Protocol: protos[i], Elapsed: r.Elapsed}
			total := float64(r.Breakdown.Total())
			for j := range rows[i].Breakdown {
				frac := float64(r.Breakdown[j]) / total
				rows[i].Breakdown[j] = frac * float64(r.Elapsed) / base
			}
		}
		return rows
	})
	return cells, func(res []Result) []Figure4SVMRow { return slices.Concat(perApp(res)...) }
}

// AURCGain computes the AURC-vs-HLRC improvement per app from the
// figure4svm rows, for comparison with the paper's 9.1% / 30.2% / 79.3%.
func AURCGain(rows []Figure4SVMRow) map[App]float64 {
	base := map[App]float64{}
	gain := map[App]float64{}
	for _, r := range rows {
		if r.Protocol == svm.HLRC {
			base[r.App] = float64(r.Elapsed)
		}
	}
	for _, r := range rows {
		if r.Protocol == svm.AURC {
			gain[r.App] = (base[r.App] - float64(r.Elapsed)) / base[r.App] * 100
		}
	}
	return gain
}

// ---- Figure 4 (right): AU vs DU -----------------------------------------

// Figure4AUDURow compares the AU and DU versions of one application.
type Figure4AUDURow struct {
	App       App
	ElapsedAU sim.Time
	ElapsedDU sim.Time
	AUSpeedup float64 // DU time / AU time
	PaperNote string
}

// figure4AUDU compares automatic vs deliberate update for Radix-VMMC,
// Ocean-NX and Barnes-NX.
func figure4AUDU(cfg Config) ([]CellSpec, func([]Result) []Figure4AUDURow) {
	return appGrid([]App{RadixVMMC, OceanNX, BarnesNX}, func(a App) []CellSpec {
		return []CellSpec{
			{App: a.String(), Nodes: cfg.Nodes, Variant: "AU"},
			{App: a.String(), Nodes: cfg.Nodes, Variant: "DU"},
		}
	}, func(a App, res []Result) Figure4AUDURow {
		au, du := res[0].Elapsed, res[1].Elapsed
		note := ""
		if a == RadixVMMC {
			note = fmt.Sprintf("paper: AU %.1fx better", paperRadixAUFactor)
		}
		return Figure4AUDURow{App: a, ElapsedAU: au, ElapsedDU: du,
			AUSpeedup: float64(du) / float64(au), PaperNote: note}
	})
}

// ---- Tables 2 and 4: baseline vs one knob --------------------------------

// WhatIfRow is a baseline-vs-modified comparison for one application.
type WhatIfRow struct {
	App      App
	Baseline sim.Time
	Modified sim.Time
	Percent  float64 // execution-time increase
	Paper    float64 // paper's percentage (-1 if not reported)
}

// whatIf runs each app in its default variant on nodes(a) nodes, as
// built and with knobs set, and compares the two.
func whatIf(apps []App, nodes func(App) int, knobs Knobs, paper func(paperRef) float64) ([]CellSpec, func([]Result) []WhatIfRow) {
	return appGrid(apps, func(a App) []CellSpec {
		return knobCells(defaultCell(a, nodes(a)), Knobs{}, knobs)
	}, func(a App, res []Result) WhatIfRow {
		base, mod := res[0].Elapsed, res[1].Elapsed
		return WhatIfRow{App: a, Baseline: base, Modified: mod,
			Percent: percentIncrease(base, mod), Paper: paper(appDecls[a].paper)}
	})
}

// table2 measures the cost of requiring a kernel trap per message send.
func table2(cfg Config) ([]CellSpec, func([]Result) []WhatIfRow) {
	var apps []App
	for _, a := range AllApps() {
		if a != DFSSockets { // not reported in the paper's Table 2
			apps = append(apps, a)
		}
	}
	return whatIf(apps, func(App) int { return cfg.Nodes },
		Knobs{SyscallPerSend: bptr(true)}, func(r paperRef) float64 { return r.syscall })
}

// table4 measures the cost of taking an interrupt on every arriving
// message. Barnes-NX runs on at most 8 nodes, as in the paper.
func table4(cfg Config) ([]CellSpec, func([]Result) []WhatIfRow) {
	return whatIf(AllApps(), func(a App) int {
		if a == BarnesNX && cfg.Nodes > 8 {
			return 8
		}
		return cfg.Nodes
	}, Knobs{InterruptPerMessage: bptr(true)}, func(r paperRef) float64 { return r.interrupt })
}

// ---- Table 3: notification usage ----------------------------------------

// Table3Row characterizes notification usage for one application.
type Table3Row struct {
	App           App
	Notifications int64
	Messages      int64
	Percent       float64
	PaperNotif    int64
	PaperMsgs     int64
}

// table3 counts notifications and total messages at full machine size.
func table3(cfg Config) ([]CellSpec, func([]Result) []Table3Row) {
	return appGrid(AllApps(), func(a App) []CellSpec {
		return []CellSpec{defaultCell(a, cfg.Nodes)}
	}, func(a App, res []Result) Table3Row {
		c := res[0].Counters
		pct := 0.0
		if c.MessagesSent > 0 {
			pct = float64(c.Notifications) / float64(c.MessagesSent) * 100
		}
		ref := appDecls[a].paper
		return Table3Row{App: a, Notifications: c.Notifications,
			Messages: c.MessagesSent, Percent: pct,
			PaperNotif: ref.notify, PaperMsgs: ref.msgs}
	})
}

// ---- §4.5.1: automatic-update combining ----------------------------------

// CombiningRow compares combining on vs off for one configuration.
type CombiningRow struct {
	Name      string
	With      sim.Time
	Without   sim.Time
	Percent   float64 // slowdown without combining
	PaperNote string
}

// combining evaluates AU combining, every configuration forced onto AU:
// negligible for the sparse-writing AU applications, about 2x for bulk
// transfers.
func combining(cfg Config) ([]CellSpec, func([]Result) []CombiningRow) {
	apps := []App{RadixVMMC, RadixSVM, OceanSVM, BarnesSVM, DFSSockets}
	return appGrid(apps, func(a App) []CellSpec {
		return knobCells(CellSpec{App: a.String(), Nodes: cfg.Nodes, Variant: "AU"},
			Knobs{Combining: bptr(true)}, Knobs{Combining: bptr(false)})
	}, func(a App, res []Result) CombiningRow {
		name := a.String() + " (AU)"
		note := "paper: <1% effect"
		if a == DFSSockets {
			// DFS forced onto automatic update: combining matters enormously.
			name = "DFS-sockets (forced AU)"
			note = "paper: ~2x slower uncombined"
		}
		return CombiningRow{Name: name, With: res[0].Elapsed, Without: res[1].Elapsed,
			Percent: percentIncrease(res[0].Elapsed, res[1].Elapsed), PaperNote: note}
	})
}

// ---- §4.5.2: outgoing FIFO capacity --------------------------------------

// FIFORow compares outgoing-FIFO sizes for one application.
type FIFORow struct {
	App       App
	Large     sim.Time // 32 KB FIFO (as built)
	Small     sim.Time // 1 KB FIFO
	Percent   float64
	HighWater int // max occupancy observed with the large FIFO
}

// fifo evaluates shrinking the outgoing FIFO from 32 KB to 1 KB; the
// paper found no detectable difference.
func fifo(cfg Config) ([]CellSpec, func([]Result) []FIFORow) {
	small := Knobs{
		OutFIFOBytes:       iptr(1024),
		FIFOThresholdBytes: iptr(768),
		FIFOLowWaterBytes:  iptr(256),
	}
	return appGrid([]App{RadixVMMC, RadixSVM, OceanSVM, DFSSockets}, func(a App) []CellSpec {
		return knobCells(defaultCell(a, cfg.Nodes), Knobs{}, small)
	}, func(a App, res []Result) FIFORow {
		large, small := res[0], res[1]
		return FIFORow{App: a, Large: large.Elapsed, Small: small.Elapsed,
			Percent: percentIncrease(large.Elapsed, small.Elapsed), HighWater: large.FIFOHigh}
	})
}

// ---- §4.5.3: deliberate-update queueing ----------------------------------

// DUQueueRow compares DU request-queue depths for one application.
type DUQueueRow struct {
	App     App
	Depth1  sim.Time
	Depth2  sim.Time
	Percent float64 // improvement from the deeper queue
}

// duQueue evaluates a 2-deep transfer-request queue against the shipped
// depth of 1, using the SVM applications (small transfers) under the
// deliberate-update protocol (HLRC), as the paper did; the effect was
// within 1%.
func duQueue(cfg Config) ([]CellSpec, func([]Result) []DUQueueRow) {
	return appGrid([]App{BarnesSVM, OceanSVM, RadixSVM}, func(a App) []CellSpec {
		return knobCells(CellSpec{App: a.String(), Nodes: cfg.Nodes, Protocol: svm.HLRC.String()},
			Knobs{}, Knobs{DUQueueDepth: iptr(2)})
	}, func(a App, res []Result) DUQueueRow {
		d1, d2 := res[0].Elapsed, res[1].Elapsed
		return DUQueueRow{App: a, Depth1: d1, Depth2: d2, Percent: percentIncrease(d2, d1)}
	})
}

// ---- Extension: interrupt per packet vs per message ----------------------
//
// §4.4 closes with "If interrupts are necessary on each packet rather
// than each message, overheads will be even higher in some cases." This
// experiment quantifies that remark.

// PerPacketRow compares per-message and per-packet interrupt designs.
type PerPacketRow struct {
	App        App
	Baseline   sim.Time
	PerMessage sim.Time
	PerPacket  sim.Time
	MsgPct     float64
	PktPct     float64
}

// perPacket measures both interrupt designs per application.
func perPacket(cfg Config) ([]CellSpec, func([]Result) []PerPacketRow) {
	return appGrid(AllApps(), func(a App) []CellSpec {
		return knobCells(defaultCell(a, cfg.Nodes), Knobs{},
			Knobs{InterruptPerMessage: bptr(true)}, Knobs{InterruptPerPacket: bptr(true)})
	}, func(a App, res []Result) PerPacketRow {
		base, msg, pkt := res[0].Elapsed, res[1].Elapsed, res[2].Elapsed
		return PerPacketRow{App: a, Baseline: base, PerMessage: msg, PerPacket: pkt,
			MsgPct: percentIncrease(base, msg), PktPct: percentIncrease(base, pkt)}
	})
}
