// Package harness drives the paper's evaluation: one registry entry per
// table and figure, each of which configures machines, runs the
// applications, and reports measured values side by side with the
// paper's published numbers. The absolute numbers come from a simulator rather than the
// authors' testbed; the *shapes* (who wins, by what factor, where the
// effects vanish) are the reproduction targets.
package harness

import (
	"fmt"
	"math"

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
	"shrimp/internal/twin"
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

// appDecl declares one application: everything the harness and its
// analytical twin know about it. appDecls holds one entry per App, so
// adding or changing an application means editing one declaration.
type appDecl struct {
	name  string // display name, as the paper's tables print it
	alias string // lowercase CLI name
	api   string // communication API family: SVM, VMMC, NX or Sockets
	// variant is the shipped configuration (DefaultVariant).
	variant Variant
	// workload returns the problem parameters the app runs under, which
	// the canonical cell encoding embeds.
	workload func(w *Workloads) any
	// size describes the problem size for Table 1.
	size func(w *Workloads) string
	// start builds the app on sys and runs its warmup prefix, if it has
	// one, returning the body to run once the cell's knobs have landed.
	start func(sys *vmmc.System, spec Spec, w *Workloads) func() sim.Time
	// profile counts the twin's inventory of a cell off the app's source
	// (docs/twin.md derives each term). It takes the model by value so
	// the model stays on the caller's stack.
	profile func(w *Workloads, spec Spec, m twin.Model) profile
	// overlap is the twin's comm-overlap constant per Variant, the one
	// scalar fitted per profile against the simulator (make calibrate).
	overlap [2]float64
}

// appDecls declares the paper's eight applications. The shipped
// variants are Figure 3's annotations: Ocean-NX (AU), Radix-VMMC (AU),
// Barnes-NX (DU), Radix-SVM (AU), Ocean-SVM (AU), Barnes-SVM (AU); the
// sockets applications ship on deliberate update.
var appDecls = [NumApps]appDecl{
	BarnesSVM: {
		name: "Barnes-SVM", alias: "barnes-svm", api: "SVM", variant: VariantAU,
		workload: func(w *Workloads) any { return w.BarnesSVM },
		size: func(w *Workloads) string {
			return fmt.Sprintf("%d bodies, %d steps", w.BarnesSVM.Bodies, w.BarnesSVM.Steps)
		},
		start: func(sys *vmmc.System, spec Spec, w *Workloads) func() sim.Time {
			return barnes.StartSVM(newSVM(sys, spec, barnes.SVMRegionBytes(w.BarnesSVM)), w.BarnesSVM)
		},
		profile: func(w *Workloads, spec Spec, m twin.Model) profile {
			pr, n, cost := w.BarnesSVM, spec.Nodes, m.Config().Cost
			var pf profile
			inter := barnes.Interactions(pr)
			bodyPages := float64(ceilDiv(pr.Bodies*80, svm.PageSize))
			cellPages := float64(ceilDiv(4*pr.Bodies*96, svm.PageSize)) / 4 // tree occupancy ~Bodies cells
			// Every rank walks the replicated tree (reads through the runtime)
			// and advances its block; rank 0 rebuilds and publishes the tree.
			pf.compute = sim.Time(inter/int64(n))*pr.InteractionCost +
				sim.Time(inter/int64(n))*8*cost.LoadCost // tree-node reads per interaction
			pf.serial = sim.Time(pr.Steps*pr.Bodies) * pr.InsertCost // rank 0 builds
			pf.barriers = float64(pr.Steps*5 + 1)
			pf.locks = float64(pr.Steps)
			if n == 1 {
				return pf
			}
			// Per step: every rank re-faults the tree pages rank 0 republished
			// and the body pages its peers rewrote. The whole tree is homed at
			// rank 0, so all n-1 readers convoy on its fetch queue.
			pf.faults = float64(pr.Steps) * (cellPages + bodyPages*float64(n-1)/float64(n))
			pf.faultConv = 1 + 0.55*float64(n-1)
			pf.lockConv = float64(n-1) / 2
			writeBytes := float64(pr.Steps) * (float64(pr.Bodies) * 80 / float64(n) * float64(n-1) / float64(n))
			svmProtoTerms(&pf, resolveProto(spec), writeBytes+float64(pr.Steps)*cellPages*float64(svm.PageSize)/float64(n))
			return pf
		},
		overlap: [2]float64{0.55, 0.55},
	},
	OceanSVM: {
		name: "Ocean-SVM", alias: "ocean-svm", api: "SVM", variant: VariantAU,
		workload: func(w *Workloads) any { return w.OceanSVM },
		size: func(w *Workloads) string {
			return fmt.Sprintf("%dx%d, %d iters", w.OceanSVM.N+2, w.OceanSVM.N+2, w.OceanSVM.Iters)
		},
		start: func(sys *vmmc.System, spec Spec, w *Workloads) func() sim.Time {
			return ocean.StartSVM(newSVM(sys, spec, ocean.SVMRegionBytes(w.OceanSVM)), w.OceanSVM)
		},
		profile: func(w *Workloads, spec Spec, m twin.Model) profile {
			pr, n, cost := w.OceanSVM, spec.Nodes, m.Config().Cost
			stride := pr.N + 2
			rowsPer := ceilDiv(pr.N, n)
			var pf profile
			access := 5 * (4*cost.LoadCost + cost.StoreCost) / 5 // 4 reads + 1 write per cell
			pf.compute = sim.Time(pr.Iters*rowsPer*pr.N)*pr.CellCost +
				sim.Time(pr.Iters*rowsPer*pr.N)*access
			pf.barriers = float64(pr.Iters*2 + 1)
			if n == 1 {
				return pf
			}
			rowPages := float64(ceilDiv(8*stride, svm.PageSize))
			// Each interval invalidates the boundary rows shared with both
			// neighbors; only those boundary pages' writes cross nodes —
			// interior writes stay home and cost nothing at release.
			intervals := float64(pr.Iters * 2)
			pf.faults = intervals * 2 * rowPages
			// Boundary pages are shared with at most two neighbors, so the home
			// queue stays short; residual growth tracks barrier-skew bursts.
			pf.faultConv = 1 + 0.25*float64(n-1)
			// Only the boundary rows themselves are written through the shared
			// mapping — 8*stride bytes per row, not the whole page they sit on.
			svmProtoTerms(&pf, resolveProto(spec), intervals*2*8*float64(stride))
			return pf
		},
		overlap: [2]float64{0.60, 0.60},
	},
	RadixSVM: {
		name: "Radix-SVM", alias: "radix-svm", api: "SVM", variant: VariantAU,
		workload: func(w *Workloads) any { return w.Radix },
		size: func(w *Workloads) string {
			return fmt.Sprintf("%dK keys, %d iters", w.Radix.Keys/1024, w.Radix.Iters)
		},
		start: func(sys *vmmc.System, spec Spec, w *Workloads) func() sim.Time {
			return radix.StartSVM(newSVM(sys, spec, radix.SVMRegionBytes(w.Radix, spec.Nodes)), w.Radix)
		},
		profile: func(w *Workloads, spec Spec, m twin.Model) profile {
			pr, n, cost := w.Radix, spec.Nodes, m.Config().Cost
			keysPer := ceilDiv(pr.Keys, n)
			passes := pr.Iters
			var pf profile
			// Per key per pass: histogram quarter, permutation three quarters,
			// plus the runtime's access bookkeeping on the shared reads/writes.
			access := 3 * (cost.LoadCost + cost.StoreCost)
			pf.compute = sim.Time(passes*keysPer)*(pr.KeyCost/4+3*pr.KeyCost/4) +
				sim.Time(passes*keysPer)*access +
				sim.Time(passes*n*pr.Radix)*cost.LoadCost // global prefix scan
			pf.barriers = float64(passes*3 + 1)
			if n == 1 {
				return pf
			}
			keyPages := ceilDiv(4*pr.Keys, svm.PageSize)
			histPages := n // one page-aligned row per rank
			// Permutation writes scatter over the whole destination array:
			// every rank touches nearly every page each pass; the histogram
			// exchange faults on every peer row.
			pf.faults = float64(passes) * (math.Min(float64(keysPer), float64(keyPages)) + float64(histPages))
			// Permutation pages are spread round-robin over the ranks, but every
			// rank faults them in the same burst after each barrier.
			pf.faultConv = 1 + 0.2*float64(n-1)
			remoteWrites := float64(passes) * float64(keysPer) * float64(n-1) / float64(n)
			svmProtoTerms(&pf, resolveProto(spec), 4*remoteWrites)
			return pf
		},
		overlap: [2]float64{0.60, 0.60},
	},
	RadixVMMC: {
		name: "Radix-VMMC", alias: "radix-vmmc", api: "VMMC", variant: VariantAU,
		workload: func(w *Workloads) any { return w.Radix },
		size: func(w *Workloads) string {
			return fmt.Sprintf("%dK keys, %d iters", w.Radix.Keys/1024, w.Radix.Iters)
		},
		start: func(sys *vmmc.System, spec Spec, w *Workloads) func() sim.Time {
			mech := radix.AU
			if spec.Variant == VariantDU {
				mech = radix.DU
			}
			return radix.StartVMMC(sys, mech, w.Radix)
		},
		profile: func(w *Workloads, spec Spec, m twin.Model) profile {
			pr, n, cost := w.Radix, spec.Nodes, m.Config().Cost
			keysPer := ceilDiv(pr.Keys, n)
			passes := pr.Iters
			var pf profile
			pf.compute = sim.Time(passes*keysPer) * (pr.KeyCost/4 + pr.KeyCost/2 + cost.LoadCost)
			pf.barriers = float64(passes + 1)
			if n == 1 {
				return pf
			}
			histRow := float64(4 * (pr.Radix + 1))
			remote := float64(passes) * float64(keysPer) * float64(n-1) / float64(n)
			// Histogram rows and completion flags to every peer, each pass.
			pf.msgs = float64(passes * (n - 1) * 2)
			pf.msgBytes = (histRow + 8) / 2
			pf.recvs = pf.msgs
			pf.copyBytes = float64(passes) * histRow // staging copy
			if spec.Variant == VariantAU {
				pf.auStores = remote
				pf.auBytes = 4 * remote
			} else {
				// Gather copies, one bulk message per peer, scatter at the
				// receiver (two loads and a store per pair).
				pf.copyBytes += 8 * remote
				pf.msgs += float64(passes * (n - 1))
				gatherBytes := 8*remote/float64(passes*(n-1)) + 4
				pf.msgBytes = (float64(passes*(n-1))*((histRow+8)/2) + float64(passes*(n-1))*gatherBytes) /
					float64(passes*(n-1)*3)
				pf.recvs = pf.msgs
				pf.compute += sim.Time(remote * float64(2*cost.LoadCost+cost.StoreCost))
			}
			return pf
		},
		overlap: [2]float64{1.30, 1.30},
	},
	BarnesNX: {
		name: "Barnes-NX", alias: "barnes-nx", api: "NX", variant: VariantDU,
		workload: func(w *Workloads) any { return w.BarnesNX },
		size: func(w *Workloads) string {
			return fmt.Sprintf("%d bodies, %d steps", w.BarnesNX.Bodies, w.BarnesNX.Steps)
		},
		start: func(sys *vmmc.System, spec Spec, w *Workloads) func() sim.Time {
			return func() sim.Time { return barnes.RunNX(newNX(sys, spec), w.BarnesNX) }
		},
		profile: func(w *Workloads, spec Spec, m twin.Model) profile {
			pr, n, cost := w.BarnesNX, spec.Nodes, m.Config().Cost
			const bodyWire = 7 * 8
			var pf profile
			inter := barnes.Interactions(pr)
			pf.compute = sim.Time(inter/int64(n))*pr.InteractionCost +
				sim.Time(pr.Steps*pr.Bodies)*pr.InsertCost
			if n == 1 {
				return pf
			}
			batch := pr.MsgBatch
			if batch <= 0 {
				batch = 2
			}
			bodiesPer := ceilDiv(pr.Bodies, n)
			batches := float64(ceilDiv(bodiesPer, batch))
			// All-gather every step: my block to every peer, every peer's block
			// to me, in MsgBatch-body messages over the rings.
			pf.msgs = float64(pr.Steps) * float64(n-1) * batches
			pf.msgBytes = float64(batch * bodyWire)
			pf.recvs = pf.msgs
			pf.copyBytes = 2 * pf.msgs * pf.msgBytes
			// Final gather at rank 0.
			pf.serial = sim.Time(float64(n-1) * float64(m.RxService(bodiesPer*bodyWire)+cost.CopyTime(bodiesPer*bodyWire)))
			return pf
		},
		overlap: [2]float64{0.80, 0.80},
	},
	OceanNX: {
		name: "Ocean-NX", alias: "ocean-nx", api: "NX", variant: VariantAU,
		workload: func(w *Workloads) any { return w.OceanNX },
		size: func(w *Workloads) string {
			return fmt.Sprintf("%dx%d, %d iters", w.OceanNX.N+2, w.OceanNX.N+2, w.OceanNX.Iters)
		},
		start: func(sys *vmmc.System, spec Spec, w *Workloads) func() sim.Time {
			return func() sim.Time { return ocean.RunNX(newNX(sys, spec), w.OceanNX) }
		},
		profile: func(w *Workloads, spec Spec, m twin.Model) profile {
			pr, n, cost := w.OceanNX, spec.Nodes, m.Config().Cost
			stride := pr.N + 2
			rowsPer := ceilDiv(pr.N, n)
			var pf profile
			pf.compute = sim.Time(pr.Iters*rowsPer*pr.N) * pr.CellCost
			if n == 1 {
				return pf
			}
			chunk := pr.ChunkCells
			if chunk <= 0 {
				chunk = stride
			}
			msgsPerRow := float64(ceilDiv(stride, chunk))
			rowBytes := float64(8 * stride)
			// Interior ranks ship two boundary rows per color, every iteration,
			// and receive two ghost rows back.
			exchanges := float64(pr.Iters * 2 * 2)
			pf.msgs = exchanges * msgsPerRow
			pf.msgBytes = rowBytes / msgsPerRow
			pf.recvs = pf.msgs
			// Ring copies on both sides of every logical send.
			pf.copyBytes = 2 * exchanges * rowBytes
			// Final gather: rank 0 receives every remote row.
			remoteRows := float64(pr.N - rowsPer)
			pf.serial = sim.Time(remoteRows * float64(m.RxService(int(rowBytes))+cost.CopyTime(int(rowBytes))))
			return pf
		},
		overlap: [2]float64{0.80, 0.80},
	},
	DFSSockets: {
		name: "DFS-sockets", alias: "dfs", api: "Sockets", variant: VariantDU,
		workload: func(w *Workloads) any { return w.DFS },
		// Clients run on half the nodes of the paper's 16-node machine.
		size: func(*Workloads) string { return fmt.Sprintf("%d clients", 16/2) },
		start: func(sys *vmmc.System, spec Spec, w *Workloads) func() sim.Time {
			return func() sim.Time { return dfs.Run(sys, socketConfig(spec), w.DFS) }
		},
		profile: func(w *Workloads, spec Spec, m twin.Model) profile {
			pr, n, cost := w.DFS, spec.Nodes, m.Config().Cost
			var pf profile
			ws := pr.FilesPerClient * pr.BlocksPerFile
			reads := 2 * ws // warm-up pass plus measured pass
			hits := 0
			if ws <= pr.CacheBlocks {
				hits = ws // second pass entirely cached
			}
			misses := reads - hits
			pf.compute = sim.Time(reads) * pr.BlockTouchCost
			if n == 1 {
				pf.compute += sim.Time(misses) * cost.CopyTime(pr.BlockSize)
				return pf
			}
			localFrac := 1.0 / float64(n)
			remoteMisses := float64(misses) * (1 - localFrac)
			localMisses := float64(misses) * localFrac
			pf.compute += sim.Time(localMisses * float64(cost.CopyTime(pr.BlockSize)))
			// Every remote miss is a synchronous request/response round trip:
			// the 8-byte request, the server's store lookup + copy, and the
			// block shipped back through the socket ring.
			pf.rpcs = remoteMisses
			pf.rpcBytes = float64(pr.BlockSize)
			// Server-side work lands on the same nodes the clients run on: each
			// node serves its stripe of every client's misses.
			nclients := n / 2
			if nclients == 0 {
				nclients = 1
			}
			serverPerNode := remoteMisses * float64(nclients) / float64(n)
			pf.serial = sim.Time(serverPerNode * 2 * float64(cost.CopyTime(pr.BlockSize)))
			// Ring copies for request out and block in.
			pf.copyBytes = remoteMisses * float64(pr.BlockSize+16)
			if spec.Variant == VariantAU {
				// AU rings move the block bytes as an automatic-update stream
				// (snooped stores on the server, packet-per-word without
				// combining); the DU engine only carries the tiny requests.
				pf.auBytes = remoteMisses * float64(pr.BlockSize)
				pf.auStores = pf.auBytes / 8 // ring stores are 8-byte words
				pf.rpcBytes = 64
			}
			return pf
		},
		overlap: [2]float64{VariantAU: 1.00, VariantDU: 1.15},
	},
	RenderSockets: {
		name: "Render-sockets", alias: "render", api: "Sockets", variant: VariantDU,
		workload: func(w *Workloads) any { return w.Render },
		size:     func(w *Workloads) string { return fmt.Sprintf("%d^2 image", w.Render.ImageSize) },
		start: func(sys *vmmc.System, spec Spec, w *Workloads) func() sim.Time {
			return func() sim.Time { return render.Run(sys, socketConfig(spec), w.Render) }
		},
		profile: func(w *Workloads, spec Spec, m twin.Model) profile {
			pr, n, cost := w.Render, spec.Nodes, m.Config().Cost
			var pf profile
			samples := render.Samples(pr)
			if n == 1 {
				pf.compute = sim.Time(samples) * pr.SampleCost
				return pf
			}
			workers := n - 1
			tilesPerRow := pr.ImageSize / pr.TileSize
			tiles := tilesPerRow * tilesPerRow
			tileBytes := pr.TileSize * pr.TileSize
			pf.compute = sim.Time(samples/int64(workers)) * pr.SampleCost
			tilesPer := float64(tiles) / float64(workers)
			// Task pull (round trip to the controller) plus the result message
			// per tile.
			pf.rpcs = tilesPer
			pf.rpcBytes = 8
			pf.msgs = tilesPer
			pf.msgBytes = float64(5 + tileBytes)
			pf.copyBytes = tilesPer * float64(tileBytes)
			// Controller: ship the volume to every worker at connect, then
			// field every task request and land every tile.
			vol := pr.VolumeDim * pr.VolumeDim * pr.VolumeDim
			perTile := float64(m.RxService(5+tileBytes)) + float64(cost.CopyTime(tileBytes))
			pf.serial = sim.Time(float64(workers)*float64(cost.CopyTime(vol)+m.DUEngineService(vol)) +
				float64(tiles)*perTile)
			return pf
		},
		overlap: [2]float64{0.80, 0.80},
	},
}

func (a App) String() string { return appDecls[a].name }

// API reports the communication API an application uses.
func (a App) API() string { return appDecls[a].api }

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
func (w *Workloads) SizeString(a App) string { return appDecls[a].size(w) }

// Spec is one run request.
type Spec struct {
	App     App
	Nodes   int
	Variant Variant
	// Protocol overrides the SVM protocol implied by Variant (used by
	// the Figure 4 protocol comparison).
	Protocol *svm.Protocol
	// Knobs are the named machine-configuration what-ifs. Every cell
	// starts on the as-built machine and takes its knobs before the
	// app's first knob-sensitive step: at the post-warmup phase boundary
	// for the SVM applications and Radix-VMMC, before the NX or sockets
	// library is built for the others.
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

// newSVM builds an SVM app's shared-memory system: the protocol the
// spec resolves to, over a region of the app's size.
func newSVM(sys *vmmc.System, spec Spec, regionBytes int) *svm.System {
	return svm.New(sys, svm.DefaultConfig(resolveProto(spec), regionBytes))
}

// ringMode is the bulk-transfer mode of the NX and sockets libraries a
// variant selects.
func (v Variant) ringMode() ring.Mode {
	if v == VariantDU {
		return ring.DU
	}
	return ring.AU
}

// newNX builds the NX library in the spec's transfer mode.
func newNX(sys *vmmc.System, spec Spec) *nx.Comm {
	return nx.New(sys, nx.Config{Mode: spec.Variant.ringMode(), RingBytes: 128 * 1024})
}

// socketConfig is the sockets library configuration in the spec's
// transfer mode.
func socketConfig(spec Spec) socketlib.Config {
	scfg := socketlib.DefaultConfig()
	scfg.Mode = spec.Variant.ringMode()
	return scfg
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

// Run executes one spec and collects the account. It builds the
// as-built machine (no knobs yet: they land the way the paper
// reprograms the as-built firmware) and starts the spec's app: the SVM
// apps and Radix-VMMC run their warmup and stop at their phase
// boundary, and the NX and sockets apps have not begun. Then it sets
// the knobs on the live machine, its config block and every NIC's copy
// of the NIC part, and runs the app's body. The device layers read
// every knob at its point of use, so this is equivalent to having built
// the machine with the knobs, for everything after the warmup.
func Run(spec Spec, w *Workloads) Result {
	cfg := machine.DefaultConfig(spec.Nodes)
	if spec.Trace != nil {
		cfg.Trace = trace.NewRecorder(*spec.Trace)
	}
	m := machine.New(cfg)
	defer m.Close()
	body := appDecls[spec.App].start(vmmc.NewSystem(m), spec, w)
	spec.Knobs.apply(&m.Cfg)
	for _, nd := range m.Nodes {
		nd.NIC.SetConfig(m.Cfg.NIC)
	}
	return collectResult(m, body())
}

// DefaultVariant returns the variant with the better speedup for an
// app — the paper plots the better of automatic and deliberate update
// in Figure 3 — which is also the configuration used for the what-if
// tables: the shipped system's preferred mechanism per application.
func DefaultVariant(a App) Variant { return appDecls[a].variant }
