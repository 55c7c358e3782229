// Package harness drives the paper's evaluation: one driver per table
// and figure, each of which configures machines, runs the applications,
// and reports measured values side by side with the paper's published
// numbers. The absolute numbers come from a simulator rather than the
// authors' testbed; the *shapes* (who wins, by what factor, where the
// effects vanish) are the reproduction targets.
package harness

import (
	"fmt"

	"shrimp/internal/apps/barnes"
	"shrimp/internal/apps/dfs"
	"shrimp/internal/apps/ocean"
	"shrimp/internal/apps/radix"
	"shrimp/internal/apps/render"
	"shrimp/internal/machine"
	"shrimp/internal/nx"
	"shrimp/internal/ring"
	"shrimp/internal/sim"
	"shrimp/internal/socketlib"
	"shrimp/internal/stats"
	"shrimp/internal/svm"
	"shrimp/internal/trace"
	"shrimp/internal/vmmc"
)

// App identifies one of the paper's eight applications (Table 1).
type App int

const (
	BarnesSVM App = iota
	OceanSVM
	RadixSVM
	RadixVMMC
	BarnesNX
	OceanNX
	DFSSockets
	RenderSockets
	NumApps
)

var appNames = [NumApps]string{
	"Barnes-SVM", "Ocean-SVM", "Radix-SVM", "Radix-VMMC",
	"Barnes-NX", "Ocean-NX", "DFS-sockets", "Render-sockets",
}

func (a App) String() string { return appNames[a] }

// API reports the communication API an application uses.
func (a App) API() string {
	switch a {
	case BarnesSVM, OceanSVM, RadixSVM:
		return "SVM"
	case RadixVMMC:
		return "VMMC"
	case BarnesNX, OceanNX:
		return "NX"
	default:
		return "Sockets"
	}
}

// AllApps lists every application.
func AllApps() []App {
	apps := make([]App, NumApps)
	for i := range apps {
		apps[i] = App(i)
	}
	return apps
}

// Variant selects the bulk-transfer mechanism for an application:
// for SVM applications AU means the AURC protocol and DU means HLRC;
// for the others it selects the library's transfer mode.
type Variant int

const (
	// VariantAU uses automatic update (AURC for SVM applications).
	VariantAU Variant = iota
	// VariantDU uses deliberate update (HLRC for SVM applications).
	VariantDU
)

func (v Variant) String() string {
	if v == VariantAU {
		return "AU"
	}
	return "DU"
}

// Workloads bundles the problem sizes used for a whole evaluation run.
type Workloads struct {
	Radix     radix.Params
	OceanSVM  ocean.Params
	OceanNX   ocean.Params
	BarnesSVM barnes.Params
	BarnesNX  barnes.Params
	DFS       dfs.Params
	Render    render.Params
	// Load sizes the open-loop traffic experiments (internal/workload).
	Load LoadParams
	// Note documents the scaling relative to the paper's sizes.
	Note string
}

// DefaultWorkloads returns laptop-scale problems: the paper's sizes
// divided by a fixed factor so a full sweep finishes in minutes while
// preserving every communication pattern. (The paper itself selected
// "small problem sizes", §3.)
func DefaultWorkloads() Workloads {
	w := Workloads{Note: "paper sizes scaled down ~16x (see EXPERIMENTS.md)"}
	w.Radix = radix.DefaultParams() // 128K keys vs 2M
	w.OceanSVM = ocean.Params{N: 128, Iters: 20, CellCost: ocean.DefaultParams().CellCost}
	w.OceanNX = ocean.Params{N: 128, Iters: 20, CellCost: ocean.DefaultParams().CellCost}
	w.BarnesSVM = barnes.Params{Bodies: 1024, Steps: 3,
		Theta: 0.7, Dt: 0.025, Eps: 0.05,
		InteractionCost: barnes.DefaultParams().InteractionCost,
		InsertCost:      barnes.DefaultParams().InsertCost}
	w.BarnesNX = w.BarnesSVM
	w.BarnesNX.Steps = 4
	w.DFS = dfs.DefaultParams()
	w.Render = render.DefaultParams()
	w.Load = DefaultLoadParams()
	return w
}

// QuickWorkloads returns very small problems for tests and benchmarks.
func QuickWorkloads() Workloads {
	w := DefaultWorkloads()
	w.Note = "tiny test sizes"
	w.Radix.Keys = 1 << 13
	w.OceanSVM = ocean.Params{N: 48, Iters: 6, CellCost: w.OceanSVM.CellCost}
	w.OceanNX = w.OceanSVM
	w.BarnesSVM.Bodies = 256
	w.BarnesSVM.Steps = 2
	w.BarnesNX = w.BarnesSVM
	w.DFS.FilesPerClient = 2
	w.DFS.BlocksPerFile = 16
	w.DFS.CacheBlocks = 10
	w.Render = render.Params{VolumeDim: 12, ImageSize: 32, TileSize: 8,
		SampleCost: w.Render.SampleCost}
	w.Load = QuickLoadParams()
	return w
}

// SizeString describes an app's configured problem size (Table 1 left).
func (w *Workloads) SizeString(a App) string {
	switch a {
	case BarnesSVM:
		return fmt.Sprintf("%d bodies, %d steps", w.BarnesSVM.Bodies, w.BarnesSVM.Steps)
	case OceanSVM:
		return fmt.Sprintf("%dx%d, %d iters", w.OceanSVM.N+2, w.OceanSVM.N+2, w.OceanSVM.Iters)
	case RadixSVM, RadixVMMC:
		return fmt.Sprintf("%dK keys, %d iters", w.Radix.Keys/1024, w.Radix.Iters)
	case BarnesNX:
		return fmt.Sprintf("%d bodies, %d steps", w.BarnesNX.Bodies, w.BarnesNX.Steps)
	case OceanNX:
		return fmt.Sprintf("%dx%d, %d iters", w.OceanNX.N+2, w.OceanNX.N+2, w.OceanNX.Iters)
	case DFSSockets:
		return fmt.Sprintf("%d clients", maxInt(1, 16/2))
	default:
		return fmt.Sprintf("%d^2 image", w.Render.ImageSize)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Spec is one run request.
type Spec struct {
	App     App
	Nodes   int
	Variant Variant
	// Protocol overrides the SVM protocol implied by Variant (used by
	// the Figure 4 protocol comparison).
	Protocol *svm.Protocol
	// Knobs are the named machine-configuration what-ifs. For the
	// checkpointable applications they are applied at the post-warmup
	// phase boundary (identically in cold and prefix-shared runs);
	// everywhere else at machine build time. Every knob is read at its
	// point of use by the device layers, so the two are equivalent for
	// non-phased apps.
	Knobs Knobs
	// Trace, when non-nil, attaches a fresh trace.Recorder to the cell's
	// machine; the populated recorder comes back in Result.Trace.
	Trace *trace.Options
}

// Label renders a deterministic human-readable cell identity, used as
// the per-cell track label in trace exports.
func (s Spec) Label() string {
	v := s.Variant.String()
	if s.Protocol != nil {
		v = s.Protocol.String()
	}
	return fmt.Sprintf("%s/%s/n%d", s.App, v, s.Nodes)
}

// Result is one run's outcome.
type Result struct {
	Elapsed   sim.Time
	Breakdown stats.Breakdown
	Counters  stats.Counters
	FIFOHigh  int
	// Trace is the cell's populated recorder when Spec.Trace requested
	// one (nil otherwise). It is excluded from JSON output and — being
	// nil in all untraced runs — keeps Result comparable with ==.
	Trace *trace.Recorder `json:"-"`
}

// svmRegionBytes sizes the shared region for an SVM application.
func svmRegionBytes(a App, w *Workloads) int {
	switch a {
	case RadixSVM:
		return 8*w.Radix.Keys + 64*8192 + 1<<16
	case OceanSVM:
		s := w.OceanSVM.N + 2
		return 8*s*s + 1<<16
	default:
		pr := w.BarnesSVM
		return pr.Bodies*80 + (4*pr.Bodies+64)*96 + 1<<16
	}
}

// phased reports whether a spec runs as warmup + body phases with a
// checkpointable boundary in between. The four supported applications
// always run phased, so cold runs and prefix-shared forks follow the
// exact same event sequence.
func (s Spec) phased() bool {
	switch s.App {
	case BarnesSVM, OceanSVM, RadixSVM, RadixVMMC:
		return true
	}
	return false
}

// resolveProto resolves the SVM protocol a spec runs: the variant
// implies one (AU -> AURC, DU -> HLRC) and an explicit Protocol
// overrides it — the same resolution Canonical encodes.
func resolveProto(spec Spec) svm.Protocol {
	proto := svm.AURC
	if spec.Variant == VariantDU {
		proto = svm.HLRC
	}
	if spec.Protocol != nil {
		proto = *spec.Protocol
	}
	return proto
}

// phasedRun is a simulation warmed to its phase boundary: the machine
// is quiescent, the app's processes are parked (finished their warmup
// phase), and finish — the app's reattach hook — respawns them for the
// body. It is the unit the prefix-sharing planner checkpoints.
type phasedRun struct {
	m      *machine.Machine
	sys    *vmmc.System
	shm    *svm.System // nil for non-SVM apps
	finish func() sim.Time
}

// startPhased builds the machine with the as-built configuration (no
// knobs — they land at the phase boundary) and runs the warmup prefix.
func startPhased(spec Spec, w *Workloads) *phasedRun {
	cfg := machine.DefaultConfig(spec.Nodes)
	if spec.Trace != nil {
		cfg.Trace = trace.NewRecorder(*spec.Trace)
	}
	m := machine.New(cfg)
	sys := vmmc.NewSystem(m)
	ps := &phasedRun{m: m, sys: sys}
	switch spec.App {
	case BarnesSVM, OceanSVM, RadixSVM:
		scfg := svm.DefaultConfig(resolveProto(spec), svmRegionBytes(spec.App, w))
		scfg.Combine = cfg.NIC.Combining
		s := svm.New(sys, scfg)
		ps.shm = s
		switch spec.App {
		case BarnesSVM:
			ps.finish = barnes.StartSVM(s, w.BarnesSVM).Finish
		case OceanSVM:
			ps.finish = ocean.StartSVM(s, w.OceanSVM).Finish
		default:
			ps.finish = radix.StartSVM(s, w.Radix).Finish
		}
	case RadixVMMC:
		mech := radix.AU
		if spec.Variant == VariantDU {
			mech = radix.DU
		}
		ps.finish = radix.StartVMMC(sys, mech, w.Radix).Finish
	default:
		panic("harness: startPhased on a non-phased app")
	}
	return ps
}

// applyKnobs applies a spec's knobs to the live machine at the phase
// boundary: the config block, every NIC's private copy of it, and the
// SVM layer's combining flag. Every knob is read at use time by the
// engines, so this is equivalent to having built the machine with them
// — for everything after the boundary, which is exactly where the
// knobs under study act.
func (ps *phasedRun) applyKnobs(spec Spec) {
	spec.Knobs.apply(&ps.m.Cfg)
	for _, nd := range ps.m.Nodes {
		nd.NIC.SetConfig(ps.m.Cfg.NIC)
	}
	if ps.shm != nil {
		ps.shm.SetCombine(ps.m.Cfg.NIC.Combining)
	}
}

// collectResult assembles a Result from a finished machine.
func collectResult(m *machine.Machine, elapsed sim.Time) Result {
	res := Result{
		Elapsed:   elapsed,
		Breakdown: m.Acct.TotalBreakdown(),
		Counters:  m.Acct.TotalCounters(),
		Trace:     m.Cfg.Trace,
	}
	for _, nd := range m.Nodes {
		if hw := nd.NIC.FIFOHighWater(); hw > res.FIFOHigh {
			res.FIFOHigh = hw
		}
	}
	if m.Cfg.Trace != nil {
		m.Cfg.Trace.SetLinkUtil(m.Net.LinkUtil(m.E.Now()))
	}
	return res
}

// Run executes one spec cold and collects the account. The
// checkpointable apps run warmup then body, with the knobs applied at
// the phase boundary; the NX and sockets apps run in one phase on a
// machine built with the knobs.
func Run(spec Spec, w *Workloads) Result {
	if spec.phased() {
		ps := startPhased(spec, w)
		defer ps.m.Close()
		ps.applyKnobs(spec)
		return collectResult(ps.m, ps.finish())
	}

	cfg := machine.DefaultConfig(spec.Nodes)
	spec.Knobs.apply(&cfg)
	if spec.Trace != nil {
		cfg.Trace = trace.NewRecorder(*spec.Trace)
	}
	m := machine.New(cfg)
	defer m.Close()
	sys := vmmc.NewSystem(m)

	var elapsed sim.Time
	switch spec.App {
	case BarnesNX, OceanNX:
		mode := ring.AU
		if spec.Variant == VariantDU {
			mode = ring.DU
		}
		c := nx.New(sys, nx.Config{Mode: mode, RingBytes: 128 * 1024})
		if spec.App == BarnesNX {
			elapsed = barnes.RunNX(c, w.BarnesNX)
		} else {
			elapsed = ocean.RunNX(c, w.OceanNX)
		}
	case DFSSockets, RenderSockets:
		scfg := socketlib.DefaultConfig()
		if spec.Variant == VariantAU {
			scfg.Mode = ring.AU
		}
		scfg.Combine = cfg.NIC.Combining
		if spec.App == DFSSockets {
			elapsed = dfs.Run(sys, scfg, w.DFS)
		} else {
			elapsed = render.Run(sys, scfg, w.Render)
		}
	}

	return collectResult(m, elapsed)
}

// BestVariant returns the variant with the better speedup for an app —
// the paper plots the better of automatic and deliberate update in
// Figure 3.
func BestVariant(a App) Variant {
	switch a {
	// Figure 3 annotations: Ocean-NX (AU), Radix-VMMC (AU), Barnes-NX
	// (DU), Radix-SVM (AU), Ocean-SVM (AU), Barnes-SVM (AU). The
	// sockets applications ship on deliberate update.
	case BarnesNX, DFSSockets, RenderSockets:
		return VariantDU
	default:
		return VariantAU
	}
}

// DefaultVariant is the configuration used for the what-if tables: the
// shipped system's preferred mechanism per application.
func DefaultVariant(a App) Variant { return BestVariant(a) }
