package harness

import (
	"context"
	"fmt"

	"shrimp/internal/sim"
	"shrimp/internal/svm"
	"shrimp/internal/trace"
)

// Paper reference values (from the paper's tables; entries of -1 were
// illegible in the available text and are reported as "—").
var (
	// Table 1: sequential execution time, seconds.
	paperSeqTime = map[App]float64{
		BarnesSVM: -1, OceanSVM: -1, RadixSVM: 14.3, RadixVMMC: 10.9,
		BarnesNX: -1, OceanNX: -1, DFSSockets: 6.9, RenderSockets: -1,
	}
	// Table 2: execution-time increase with a system call per send, %.
	paperSyscall = map[App]float64{
		BarnesSVM: 23.2, OceanSVM: 17.7, RadixSVM: 2.3, RadixVMMC: 5.9,
		BarnesNX: 52.2, OceanNX: 10.1, RenderSockets: 6.8,
	}
	// Table 3: notifications and total messages at 16 nodes.
	paperNotify = map[App][2]int64{
		BarnesSVM:     {779136, 2394690},
		OceanSVM:      {35000, 430003},
		RadixSVM:      {161000, 380671},
		RadixVMMC:     {0, 2160},
		BarnesNX:      {10623, 1024124},
		OceanNX:       {11380, 1007342},
		DFSSockets:    {0, 3931894},
		RenderSockets: {0, 65015},
	}
	// Table 4: execution-time increase with an interrupt per message, %.
	paperInterrupt = map[App]float64{
		BarnesSVM: 18.1, OceanSVM: 25.1, RadixSVM: 1.1, RadixVMMC: 0.3,
		BarnesNX: 6.3, OceanNX: 15.7, DFSSockets: 18.3, RenderSockets: 8.5,
	}
	// Figure 4 (left): AURC improvement over HLRC, %.
	paperAURCGain = map[App]float64{BarnesSVM: 9.1, OceanSVM: 30.2, RadixSVM: 79.3}
	// Figure 4 (right): AU-over-DU speedup factor for Radix-VMMC.
	paperRadixAUFactor = 3.4
)

// Config controls an evaluation sweep.
type Config struct {
	Nodes     int // the paper's system is 16 nodes
	Workloads Workloads
	// Workers is the number of simulation cells run concurrently by each
	// experiment driver (0 = GOMAXPROCS, 1 = serial). Whatever the value,
	// results are deterministic and identical to a serial run: cells are
	// independent simulations collected by index.
	Workers int
	// Trace, when non-nil, attaches a recorder to every cell the sweep
	// runs (cells that already request their own tracing keep it).
	Trace *trace.Options
	// TraceSink receives each traced cell's recorder after its driver's
	// cells complete, in cell order — deterministic for any Workers
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
	// Ctx.Err() before using any driver's return value.
	Ctx context.Context
}

// DefaultExperimentConfig mirrors the paper's 16-node system.
func DefaultExperimentConfig() Config {
	return Config{Nodes: 16, Workloads: DefaultWorkloads()}
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

// Table1Cells builds the Table 1 grid: every application at one node.
func Table1Cells(cfg Config) []CellSpec {
	cells := make([]CellSpec, 0, len(AllApps()))
	for _, a := range AllApps() {
		nodes := 1
		if a == OceanNX {
			// Ocean-NX does not run on a uniprocessor in the paper; the
			// two-node time is given, and we follow suit.
			nodes = 2
		}
		cells = append(cells, CellSpec{App: a.String(), Nodes: nodes,
			Variant: DefaultVariant(a).String()})
	}
	return cells
}

// Table1 measures sequential (single-node) execution times.
func Table1(cfg Config) []Table1Row {
	res := cfg.runCells(Table1Cells(cfg))
	rows := make([]Table1Row, 0, len(AllApps()))
	for i, a := range AllApps() {
		rows = append(rows, Table1Row{
			App: a, API: a.API(), Size: cfg.Workloads.SizeString(a),
			SeqTime: res[i].Elapsed, PaperSec: paperSeqTime[a],
		})
	}
	return rows
}

// ---- Figure 3 -----------------------------------------------------------

// Figure3Curve is one application's speedup curve.
type Figure3Curve struct {
	App      App
	Variant  Variant
	Nodes    []int
	Speedups []float64
}

// figure3Apps are the applications plotted in Figure 3.
func figure3Apps() []App {
	return []App{OceanNX, RadixVMMC, BarnesNX, RadixSVM, OceanSVM, BarnesSVM}
}

// figure3Points are the machine sizes of the Figure 3 curves.
func figure3Points(cfg Config) []int {
	points := []int{1, 2, 4, 8}
	if cfg.Nodes >= 16 {
		points = append(points, 16)
	}
	return points
}

// Figure3Cells builds the speedup grid: one cell per (app, node count),
// the 1-node run doubling as the base.
func Figure3Cells(cfg Config) []CellSpec {
	points := figure3Points(cfg)
	cells := make([]CellSpec, 0, len(figure3Apps())*len(points))
	for _, a := range figure3Apps() {
		v := BestVariant(a).String()
		cells = append(cells, CellSpec{App: a.String(), Nodes: 1, Variant: v})
		for _, n := range points {
			if n > cfg.Nodes {
				break
			}
			if n > 1 {
				cells = append(cells, CellSpec{App: a.String(), Nodes: n, Variant: v})
			}
		}
	}
	return cells
}

// Figure3 measures speedup curves, plotting the better of the AU and DU
// versions as the paper does.
func Figure3(cfg Config) []Figure3Curve {
	points := figure3Points(cfg)
	res := cfg.runCells(Figure3Cells(cfg))
	curves := make([]Figure3Curve, 0, len(figure3Apps()))
	i := 0
	for _, a := range figure3Apps() {
		base := res[i].Elapsed
		i++
		c := Figure3Curve{App: a, Variant: BestVariant(a)}
		for _, n := range points {
			if n > cfg.Nodes {
				break
			}
			el := base
			if n > 1 {
				el = res[i].Elapsed
				i++
			}
			c.Nodes = append(c.Nodes, n)
			c.Speedups = append(c.Speedups, float64(base)/float64(el))
		}
		curves = append(curves, c)
	}
	return curves
}

// ---- Figure 4 (left): SVM protocol comparison ---------------------------

// Figure4SVMRow is one (application, protocol) bar.
type Figure4SVMRow struct {
	App       App
	Protocol  svm.Protocol
	Elapsed   sim.Time
	Breakdown [5]float64 // normalized to the HLRC total
}

// figure4Protocols are the bars per application, HLRC (the base) first.
var figure4Protocols = []svm.Protocol{svm.HLRC, svm.HLRCAU, svm.AURC}

// Figure4SVMCells builds the protocol-comparison grid.
func Figure4SVMCells(cfg Config) []CellSpec {
	apps := []App{BarnesSVM, OceanSVM, RadixSVM}
	cells := make([]CellSpec, 0, len(apps)*len(figure4Protocols))
	for _, a := range apps {
		for _, proto := range figure4Protocols {
			cells = append(cells, CellSpec{App: a.String(), Nodes: cfg.Nodes,
				Protocol: proto.String()})
		}
	}
	return cells
}

// Figure4SVM compares HLRC, HLRC-AU and AURC on the three SVM
// applications.
func Figure4SVM(cfg Config) []Figure4SVMRow {
	apps := []App{BarnesSVM, OceanSVM, RadixSVM}
	res := cfg.runCells(Figure4SVMCells(cfg))
	rows := make([]Figure4SVMRow, 0, len(res))
	i := 0
	for _, a := range apps {
		base := float64(res[i].Elapsed) // HLRC comes first
		for _, proto := range figure4Protocols {
			r := res[i]
			row := Figure4SVMRow{App: a, Protocol: proto, Elapsed: r.Elapsed}
			total := float64(r.Breakdown.Total())
			for j := 0; j < 5; j++ {
				frac := float64(r.Breakdown[j]) / total
				row.Breakdown[j] = frac * float64(r.Elapsed) / base
			}
			rows = append(rows, row)
			i++
		}
	}
	return rows
}

// AURCGain computes the AURC-vs-HLRC improvement per app from Figure4SVM
// rows, for comparison with the paper's 9.1% / 30.2% / 79.3%.
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

// PaperAURCGain exposes the paper's reference values.
func PaperAURCGain() map[App]float64 { return paperAURCGain }

// ---- Figure 4 (right): AU vs DU -----------------------------------------

// Figure4AUDURow compares the AU and DU versions of one application.
type Figure4AUDURow struct {
	App       App
	ElapsedAU sim.Time
	ElapsedDU sim.Time
	AUSpeedup float64 // DU time / AU time
	PaperNote string
}

// Figure4AUDUCells builds the AU-vs-DU grid.
func Figure4AUDUCells(cfg Config) []CellSpec {
	apps := []App{RadixVMMC, OceanNX, BarnesNX}
	cells := make([]CellSpec, 0, 2*len(apps))
	for _, a := range apps {
		cells = append(cells,
			CellSpec{App: a.String(), Nodes: cfg.Nodes, Variant: "AU"},
			CellSpec{App: a.String(), Nodes: cfg.Nodes, Variant: "DU"})
	}
	return cells
}

// Figure4AUDU compares automatic vs deliberate update for Radix-VMMC,
// Ocean-NX and Barnes-NX.
func Figure4AUDU(cfg Config) []Figure4AUDURow {
	apps := []App{RadixVMMC, OceanNX, BarnesNX}
	res := cfg.runCells(Figure4AUDUCells(cfg))
	rows := make([]Figure4AUDURow, 0, len(apps))
	for i, a := range apps {
		au := res[2*i].Elapsed
		du := res[2*i+1].Elapsed
		note := ""
		if a == RadixVMMC {
			note = fmt.Sprintf("paper: AU %.1fx better", paperRadixAUFactor)
		}
		rows = append(rows, Figure4AUDURow{
			App: a, ElapsedAU: au, ElapsedDU: du,
			AUSpeedup: float64(du) / float64(au), PaperNote: note,
		})
	}
	return rows
}

// ---- Table 2: system call per send --------------------------------------

// WhatIfRow is a baseline-vs-modified comparison for one application.
type WhatIfRow struct {
	App      App
	Baseline sim.Time
	Modified sim.Time
	Percent  float64 // execution-time increase
	Paper    float64 // paper's percentage (-1 if not reported)
}

func percentIncrease(base, mod sim.Time) float64 {
	return (float64(mod) - float64(base)) / float64(base) * 100
}

// whatIfCells builds a baseline-plus-knobs pair of cells per app
// (interleaved pairwise).
func whatIfCells(cfg Config, apps []App, nodesFor func(App) int, knobs Knobs) []CellSpec {
	cells := make([]CellSpec, 0, 2*len(apps))
	for _, a := range apps {
		n := cfg.Nodes
		if nodesFor != nil {
			n = nodesFor(a)
		}
		v := DefaultVariant(a).String()
		cells = append(cells,
			CellSpec{App: a.String(), Nodes: n, Variant: v},
			CellSpec{App: a.String(), Nodes: n, Variant: v, Knobs: knobs})
	}
	return cells
}

// whatIf runs a baseline and a knob-mutated configuration per app and
// assembles the comparison rows.
func whatIf(cfg Config, apps []App, nodesFor func(App) int, knobs Knobs, paper map[App]float64) []WhatIfRow {
	res := cfg.runCells(whatIfCells(cfg, apps, nodesFor, knobs))
	rows := make([]WhatIfRow, 0, len(apps))
	for i, a := range apps {
		base := res[2*i].Elapsed
		mod := res[2*i+1].Elapsed
		p, ok := paper[a]
		if !ok {
			p = -1
		}
		rows = append(rows, WhatIfRow{App: a, Baseline: base, Modified: mod,
			Percent: percentIncrease(base, mod), Paper: p})
	}
	return rows
}

// table2Apps are the applications of the paper's Table 2.
func table2Apps() []App {
	var apps []App
	for _, a := range AllApps() {
		if a == DFSSockets {
			continue // not reported in the paper's Table 2
		}
		apps = append(apps, a)
	}
	return apps
}

// Table2Cells builds the syscall-per-send grid.
func Table2Cells(cfg Config) []CellSpec {
	return whatIfCells(cfg, table2Apps(), nil, Knobs{SyscallPerSend: bptr(true)})
}

// Table2 measures the cost of requiring a kernel trap per message send.
func Table2(cfg Config) []WhatIfRow {
	return whatIf(cfg, table2Apps(), nil, Knobs{SyscallPerSend: bptr(true)}, paperSyscall)
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

// Table3Cells builds the notification-count grid.
func Table3Cells(cfg Config) []CellSpec {
	cells := make([]CellSpec, 0, len(AllApps()))
	for _, a := range AllApps() {
		cells = append(cells, CellSpec{App: a.String(), Nodes: cfg.Nodes,
			Variant: DefaultVariant(a).String()})
	}
	return cells
}

// Table3 counts notifications and total messages at full machine size.
func Table3(cfg Config) []Table3Row {
	res := cfg.runCells(Table3Cells(cfg))
	rows := make([]Table3Row, 0, len(AllApps()))
	for i, a := range AllApps() {
		c := res[i].Counters
		pct := 0.0
		if c.MessagesSent > 0 {
			pct = float64(c.Notifications) / float64(c.MessagesSent) * 100
		}
		ref := paperNotify[a]
		rows = append(rows, Table3Row{App: a, Notifications: c.Notifications,
			Messages: c.MessagesSent, Percent: pct,
			PaperNotif: ref[0], PaperMsgs: ref[1]})
	}
	return rows
}

// ---- Table 4: interrupt per message -------------------------------------

// table4Nodes caps Barnes-NX at 8 nodes, as in the paper.
func table4Nodes(cfg Config) func(App) int {
	return func(a App) int {
		if a == BarnesNX && cfg.Nodes > 8 {
			return 8
		}
		return cfg.Nodes
	}
}

// Table4Cells builds the interrupt-per-message grid.
func Table4Cells(cfg Config) []CellSpec {
	return whatIfCells(cfg, AllApps(), table4Nodes(cfg), Knobs{InterruptPerMessage: bptr(true)})
}

// Table4 measures the cost of taking an interrupt on every arriving
// message. Barnes-NX runs on 8 nodes, as in the paper.
func Table4(cfg Config) []WhatIfRow {
	return whatIf(cfg, AllApps(), table4Nodes(cfg),
		Knobs{InterruptPerMessage: bptr(true)}, paperInterrupt)
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

// combiningApps are the §4.5.1 configurations, all forced onto AU.
var combiningApps = []App{RadixVMMC, RadixSVM, OceanSVM, BarnesSVM, DFSSockets}

// CombiningCells builds the combining-on/off grid.
func CombiningCells(cfg Config) []CellSpec {
	cells := make([]CellSpec, 0, 2*len(combiningApps))
	for _, a := range combiningApps {
		cells = append(cells,
			CellSpec{App: a.String(), Nodes: cfg.Nodes, Variant: "AU",
				Knobs: Knobs{Combining: bptr(true)}},
			CellSpec{App: a.String(), Nodes: cfg.Nodes, Variant: "AU",
				Knobs: Knobs{Combining: bptr(false)}})
	}
	return cells
}

// Combining evaluates AU combining: negligible for the sparse-writing
// AU applications, about 2x for bulk transfers forced onto AU.
func Combining(cfg Config) []CombiningRow {
	apps := combiningApps
	res := cfg.runCells(CombiningCells(cfg))
	rows := make([]CombiningRow, 0, len(apps))
	for i, a := range apps {
		name := a.String() + " (AU)"
		note := "paper: <1% effect"
		if a == DFSSockets {
			// DFS forced onto automatic update: combining matters enormously.
			name = "DFS-sockets (forced AU)"
			note = "paper: ~2x slower uncombined"
		}
		rows = append(rows, CombiningRow{
			Name: name, With: res[2*i].Elapsed, Without: res[2*i+1].Elapsed,
			Percent:   percentIncrease(res[2*i].Elapsed, res[2*i+1].Elapsed),
			PaperNote: note,
		})
	}
	return rows
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

// fifoApps are the §4.5.2 applications.
var fifoApps = []App{RadixVMMC, RadixSVM, OceanSVM, DFSSockets}

// FIFOCells builds the FIFO-capacity grid (32 KB vs 1 KB).
func FIFOCells(cfg Config) []CellSpec {
	small := Knobs{
		OutFIFOBytes:       iptr(1024),
		FIFOThresholdBytes: iptr(768),
		FIFOLowWaterBytes:  iptr(256),
	}
	cells := make([]CellSpec, 0, 2*len(fifoApps))
	for _, a := range fifoApps {
		v := DefaultVariant(a).String()
		cells = append(cells,
			CellSpec{App: a.String(), Nodes: cfg.Nodes, Variant: v},
			CellSpec{App: a.String(), Nodes: cfg.Nodes, Variant: v, Knobs: small})
	}
	return cells
}

// FIFO evaluates shrinking the outgoing FIFO from 32 KB to 1 KB; the
// paper found no detectable difference.
func FIFO(cfg Config) []FIFORow {
	apps := fifoApps
	res := cfg.runCells(FIFOCells(cfg))
	rows := make([]FIFORow, 0, len(apps))
	for i, a := range apps {
		large, small := res[2*i], res[2*i+1]
		rows = append(rows, FIFORow{App: a, Large: large.Elapsed, Small: small.Elapsed,
			Percent: percentIncrease(large.Elapsed, small.Elapsed), HighWater: large.FIFOHigh})
	}
	return rows
}

// ---- §4.5.3: deliberate-update queueing ----------------------------------

// DUQueueRow compares DU request-queue depths for one application.
type DUQueueRow struct {
	App     App
	Depth1  sim.Time
	Depth2  sim.Time
	Percent float64 // improvement from the deeper queue
}

// DUQueueCells builds the DU request-queue grid: the deliberate-update
// protocol (HLRC) at queue depth 1 and 2.
func DUQueueCells(cfg Config) []CellSpec {
	apps := []App{BarnesSVM, OceanSVM, RadixSVM}
	proto := svm.HLRC.String()
	cells := make([]CellSpec, 0, 2*len(apps))
	for _, a := range apps {
		cells = append(cells,
			CellSpec{App: a.String(), Nodes: cfg.Nodes, Protocol: proto},
			CellSpec{App: a.String(), Nodes: cfg.Nodes, Protocol: proto,
				Knobs: Knobs{DUQueueDepth: iptr(2)}})
	}
	return cells
}

// DUQueue evaluates a 2-deep transfer-request queue against the shipped
// depth of 1, using the SVM applications (small transfers), as the
// paper did; the effect was within 1%.
func DUQueue(cfg Config) []DUQueueRow {
	apps := []App{BarnesSVM, OceanSVM, RadixSVM}
	res := cfg.runCells(DUQueueCells(cfg))
	rows := make([]DUQueueRow, 0, len(apps))
	for i, a := range apps {
		d1, d2 := res[2*i].Elapsed, res[2*i+1].Elapsed
		rows = append(rows, DUQueueRow{App: a, Depth1: d1, Depth2: d2,
			Percent: percentIncrease(d2, d1)})
	}
	return rows
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

// InterruptPerPacketCells builds the per-message/per-packet grid.
func InterruptPerPacketCells(cfg Config) []CellSpec {
	cells := make([]CellSpec, 0, 3*len(AllApps()))
	for _, a := range AllApps() {
		v := DefaultVariant(a).String()
		cells = append(cells,
			CellSpec{App: a.String(), Nodes: cfg.Nodes, Variant: v},
			CellSpec{App: a.String(), Nodes: cfg.Nodes, Variant: v,
				Knobs: Knobs{InterruptPerMessage: bptr(true)}},
			CellSpec{App: a.String(), Nodes: cfg.Nodes, Variant: v,
				Knobs: Knobs{InterruptPerPacket: bptr(true)}})
	}
	return cells
}

// InterruptPerPacket measures both interrupt designs per application.
func InterruptPerPacket(cfg Config) []PerPacketRow {
	res := cfg.runCells(InterruptPerPacketCells(cfg))
	rows := make([]PerPacketRow, 0, len(AllApps()))
	for i, a := range AllApps() {
		base, msg, pkt := res[3*i].Elapsed, res[3*i+1].Elapsed, res[3*i+2].Elapsed
		rows = append(rows, PerPacketRow{App: a, Baseline: base,
			PerMessage: msg, PerPacket: pkt,
			MsgPct: percentIncrease(base, msg), PktPct: percentIncrease(base, pkt)})
	}
	return rows
}
