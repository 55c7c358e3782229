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
	"shrimp/internal/sim"
	"shrimp/internal/svm"
	"shrimp/internal/twin"
)

// Predictor evaluates harness cells with the analytical twin: the same
// CellSpec/LoadCell inputs the simulator takes, answered as a closed
// form in microseconds of host time instead of seconds of simulation.
//
// The mesh, NIC and CPU cost terms are exact (pinned against the
// device oracles in internal/twin); the per-application communication
// profiles are structural counts (messages, bytes, barriers, faults)
// read off the application source, composed serially and scaled by a
// per-app overlap constant calibrated once against the simulator (see
// docs/twin.md and the calibrate command). Compute totals use the
// applications' own work oracles where the count is data-dependent
// (Barnes tree walks, Render early-terminated rays), so they are exact
// too.
type Predictor struct {
	w *Workloads
}

// NewPredictor builds a predictor over a workload set (problem sizes
// are part of a cell's identity, exactly as for the simulator).
func NewPredictor(w *Workloads) *Predictor { return &Predictor{w: w} }

// PredictSpec returns the twin's elapsed-time estimate for one cell.
func (tp *Predictor) PredictSpec(spec Spec) sim.Time {
	m := twin.New(spec.machineConfig())
	pf := tp.profile(spec, m)
	return compose(m, pf, spec.Nodes)
}

// PredictCell compiles a serialized cell and predicts it.
func (tp *Predictor) PredictCell(cs CellSpec) (sim.Time, error) {
	spec, err := cs.Compile()
	if err != nil {
		return 0, err
	}
	return tp.PredictSpec(spec), nil
}

// PredictLatency returns the twin's view of the Table "latency"
// microbenchmarks, directly comparable to Latency().
func (tp *Predictor) PredictLatency() LatencyResult {
	m := twin.New(machine.DefaultConfig(2))
	my := twin.New(machine.MyrinetLikeConfig(2))
	return LatencyResult{
		DUSmall:      m.DUMessage(1, 4),
		AUWord:       m.AUWord(1),
		SendOverhead: m.SendOverhead(),
		MyrinetLike:  my.DUMessage(1, 4),
	}
}

// profile is the structural communication/computation inventory of one
// cell, counted per node along the critical path.
type profile struct {
	compute   sim.Time // CPU charge on the busiest rank
	serial    sim.Time // non-overlapped service time (controller, gathers)
	copyBytes float64  // local memcpy traffic (gather/scatter, ring copies)
	msgs      float64  // DU messages sent by the busiest rank
	msgBytes  float64  // mean DU payload
	rpcs      float64  // synchronous round trips on the critical path
	rpcBytes  float64  // mean response payload of those round trips
	auBytes   float64  // automatic-update stream bytes
	auStores  float64  // individual AU word stores
	recvs     float64  // messages landing on the busiest rank
	barriers  float64
	faults    float64 // SVM page fetches
	diffWords float64 // SVM diff words created + applied
	locks     float64 // SVM lock round trips
	// faultConv is the home-node convoy multiplier on the fetch portion
	// of a fault: after a release, every rank faults the same republished
	// pages, so a fetch waits behind the queue at the hottest home
	// (Barnes: the whole tree lives at rank 0). 0/1 = uncontended.
	faultConv float64
	// lockConv is the mean number of earlier holders a lock acquire
	// waits behind ((n-1)/2 for a global lock all ranks take).
	lockConv float64
	overlap  float64 // calibrated overlap factor on the comm terms
}

// compose folds a profile through the model's cost terms. Terms are
// summed (a serial critical-path view) and the comm sum is scaled by
// the profile's calibrated overlap constant: the simulator overlaps
// engine, wire and CPU work that a closed form cannot, and each app
// hides a different fraction of it.
func compose(m *twin.Model, pf profile, nodes int) sim.Time {
	cfg := m.Config()
	comm := sim.Time(0)

	comm += sim.Time(pf.copyBytes / cfg.Cost.MemCopyBandwidth * 1e9)
	if pf.msgs > 0 {
		per := float64(m.SendOverhead() + m.DUEngineService(int(pf.msgBytes)))
		comm += sim.Time(pf.msgs * per)
	}
	if pf.recvs > 0 {
		pktsPerMsg := 1.0
		if pf.msgBytes > 0 {
			pktsPerMsg = float64(m.DUPackets(int(pf.msgBytes)))
		}
		per := float64(m.RxService(int(pf.msgBytes))) +
			float64(m.InterruptPenaltyPerMessage(pktsPerMsg))
		comm += sim.Time(pf.recvs * per)
	}
	if pf.rpcs > 0 {
		hops := m.MeanHops()
		per := float64(m.DUMessage(int(math.Round(hops)), 64)) +
			float64(m.DUMessage(int(math.Round(hops)), int(pf.rpcBytes))) +
			2*float64(m.InterruptPenaltyPerMessage(float64(m.DUPackets(int(pf.rpcBytes)))))
		comm += sim.Time(pf.rpcs * per)
	}
	if pf.auBytes > 0 || pf.auStores > 0 {
		stores := sim.Time(pf.auStores * float64(cfg.Cost.AUStoreCost))
		pkt := m.AUPacketBytes()
		pkts := pf.auBytes / float64(pkt)
		drain := sim.Time(pkts * float64(m.LinkTime(m.WireSize(pkt))))
		if drain > stores {
			comm += drain
		} else {
			comm += stores
		}
		comm += m.FIFOStall(int(pf.auBytes))
		// Landing the stream on the receivers.
		comm += sim.Time(pkts * float64(m.RxService(pkt)))
	}
	comm += sim.Time(pf.barriers * float64(m.Barrier(nodes)))
	hops := int(math.Round(m.MeanHops()))
	// fetch is one page's trip through its home: request, the home's
	// copy out of memory, the page message back.
	fetch := float64(m.DUMessage(hops, 64)) +
		float64(cfg.Cost.CopyTime(svm.PageSize)) +
		float64(m.DUMessage(hops, svm.PageSize))
	if pf.faults > 0 {
		conv := pf.faultConv
		if conv < 1 {
			conv = 1
		}
		per := float64(cfg.Cost.PageFaultCost) + fetch*conv
		comm += sim.Time(pf.faults * per)
	}
	comm += m.DiffCost(int(pf.diffWords))
	if pf.locks > 0 {
		// An acquire pays the message round trip plus the residency of
		// every earlier holder: the critical section faults the lock
		// page over and updates it (~ 2 fetches' worth).
		hold := 2 * (float64(cfg.Cost.PageFaultCost) + fetch)
		comm += sim.Time(pf.locks * (float64(m.Lock(hops)) + pf.lockConv*hold))
	}

	ov := pf.overlap
	if ov <= 0 {
		ov = 1
	}
	return pf.compute + pf.serial + sim.Time(float64(comm)*ov)
}

// overlapFor is the calibrated comm-overlap constant per application
// and variant — the single fitted scalar the twin allows itself per
// profile, set by comparing the twin against the simulator on the
// quick calibration sweep (make calibrate). Indexed by App to keep
// lookup deterministic.
func overlapFor(a App, v Variant) float64 {
	type pair struct{ au, du float64 }
	table := [NumApps]pair{
		BarnesSVM:     {au: 0.55, du: 0.55},
		OceanSVM:      {au: 0.60, du: 0.60},
		RadixSVM:      {au: 0.60, du: 0.60},
		RadixVMMC:     {au: 1.30, du: 1.30},
		BarnesNX:      {au: 0.80, du: 0.80},
		OceanNX:       {au: 0.80, du: 0.80},
		DFSSockets:    {au: 1.00, du: 1.15},
		RenderSockets: {au: 0.80, du: 0.80},
	}
	if v == VariantAU {
		return table[a].au
	}
	return table[a].du
}

// profile builds the structural inventory for a spec. Counts follow
// the application sources in internal/apps — see docs/twin.md for the
// derivation of each term.
func (tp *Predictor) profile(spec Spec, m *twin.Model) profile {
	n := spec.Nodes
	w := tp.w
	var pf profile
	cost := m.Config().Cost
	switch spec.App {
	case RadixVMMC:
		pf = tp.radixVMMC(spec, n, cost)
	case OceanNX:
		pf = tp.oceanNX(w.OceanNX, n, m)
	case BarnesNX:
		pf = tp.barnesNX(w.BarnesNX, n, m)
	case DFSSockets:
		pf = tp.dfsSockets(w.DFS, n, spec.Variant, cost)
	case RenderSockets:
		pf = tp.renderSockets(w.Render, n, m)
	case RadixSVM:
		pf = tp.radixSVM(w.Radix, n, resolveProto(spec), cost)
	case OceanSVM:
		pf = tp.oceanSVM(w.OceanSVM, n, resolveProto(spec), cost)
	case BarnesSVM:
		pf = tp.barnesSVM(w.BarnesSVM, n, resolveProto(spec), cost)
	}
	pf.overlap = overlapFor(spec.App, spec.Variant)
	return pf
}

// ---- message-passing and sockets profiles --------------------------------

func (tp *Predictor) radixVMMC(spec Spec, n int, cost machine.CostModel) profile {
	pr := tp.w.Radix
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
}

func (tp *Predictor) oceanNX(pr ocean.Params, n int, m *twin.Model) profile {
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
	cost := m.Config().Cost
	pf.serial = sim.Time(remoteRows * float64(m.RxService(int(rowBytes))+cost.CopyTime(int(rowBytes))))
	return pf
}

func (tp *Predictor) barnesNX(pr barnes.Params, n int, m *twin.Model) profile {
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
	cost := m.Config().Cost
	pf.serial = sim.Time(float64(n-1) * float64(m.RxService(bodiesPer*bodyWire)+cost.CopyTime(bodiesPer*bodyWire)))
	return pf
}

func (tp *Predictor) dfsSockets(pr dfs.Params, n int, v Variant, cost machine.CostModel) profile {
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
	if v == VariantAU {
		// AU rings move the block bytes as an automatic-update stream
		// (snooped stores on the server, packet-per-word without
		// combining); the DU engine only carries the tiny requests.
		pf.auBytes = remoteMisses * float64(pr.BlockSize)
		pf.auStores = pf.auBytes / 8 // ring stores are 8-byte words
		pf.rpcBytes = 64
	}
	return pf
}

func (tp *Predictor) renderSockets(pr render.Params, n int, m *twin.Model) profile {
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
	cost := m.Config().Cost
	perTile := float64(m.RxService(5+tileBytes)) + float64(cost.CopyTime(tileBytes))
	pf.serial = sim.Time(float64(workers)*float64(cost.CopyTime(vol)+m.DUEngineService(vol)) +
		float64(tiles)*perTile)
	return pf
}

// ---- SVM profiles --------------------------------------------------------

// svmProtoTerms adjusts a base SVM profile for the protocol the cell
// runs: AURC propagates shared writes eagerly through automatic
// update; HLRC buffers them and pays diff creation/application at
// release time.
func svmProtoTerms(pf *profile, proto svm.Protocol, writeBytes float64) {
	switch proto {
	case svm.AURC:
		pf.auBytes += writeBytes
		pf.auStores += writeBytes / 4
	default: // HLRC, HLRCAU
		pf.diffWords += 2 * writeBytes / 4 // create + apply
	}
}

func (tp *Predictor) radixSVM(pr radix.Params, n int, proto svm.Protocol, cost machine.CostModel) profile {
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
	svmProtoTerms(&pf, proto, 4*remoteWrites)
	return pf
}

func (tp *Predictor) oceanSVM(pr ocean.Params, n int, proto svm.Protocol, cost machine.CostModel) profile {
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
	svmProtoTerms(&pf, proto, intervals*2*8*float64(stride))
	return pf
}

func (tp *Predictor) barnesSVM(pr barnes.Params, n int, proto svm.Protocol, cost machine.CostModel) profile {
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
	svmProtoTerms(&pf, proto, writeBytes+float64(pr.Steps)*cellPages*float64(svm.PageSize)/float64(n))
	return pf
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		return a
	}
	return (a + b - 1) / b
}

// ---- load predictions ----------------------------------------------------

// TwinLoadRow is the twin's estimate for one (cell, class): offered
// utilization of the bottleneck server and the M/G/1 mean sojourn.
type TwinLoadRow struct {
	Config      string   `json:"config"`
	Nodes       int      `json:"nodes"`
	Offered     float64  `json:"offered"`
	Class       string   `json:"class"`
	Utilization float64  `json:"utilization"`
	MeanSojourn sim.Time `json:"mean_sojourn"`
}

// PredictLoad estimates a load cell's per-class mean sojourn from a
// tandem of two queueing stations, mirroring the open-loop driver's
// structure (workload.Run):
//
//   - the server station: every request of every class crosses a shared
//     serial server (RPC: one server at node 0; socket: each stream
//     pins the server its first request targeted; DFS: the block's home
//     node). Waits come from the aggregate M/G/1 Pollaczek-Khinchine
//     formula over the per-request server occupancy (ring copies plus
//     the modeled service charge).
//   - the stream station: a stream issues its requests serially, so the
//     stream itself is a queue whose service time is the whole round
//     trip (transit + server occupancy + server wait + client cost).
//     Waits use the Kingman G/G/1 approximation with the class's
//     interarrival burstiness.
//
// The driver is open-loop over a finite trace: a saturated station does
// not diverge, it accumulates backlog across the arrival horizon T =
// Requests x gap. When either station's utilization exceeds one the
// queueing waits are replaced by the finite-horizon backlog term
// (rho-1) x T/2 — the average wait when the queue grows linearly over
// the run. Utilization reports the bottleneck rho either way.
func (tp *Predictor) PredictLoad(c LoadCell) ([]TwinLoadRow, error) {
	spec, err := c.spec()
	if err != nil {
		return nil, err
	}
	cfg := machine.DefaultConfig(c.Nodes)
	m := twin.New(cfg)
	p := c.Params
	hops := int(math.Round(m.MeanHops()))
	copyBW := cfg.Cost.MemCopyBandwidth
	copyT := func(bytes float64) float64 { return bytes / copyBW }

	// Effective server count: RPC concentrates on node 0; each socket
	// stream pins the one upper-half server its connection dialed; DFS
	// spreads block homes over every node.
	servers := 1.0
	switch c.Config {
	case "socket/du", "socket/au":
		s := c.Nodes - c.Nodes/2
		if s > p.Streams {
			s = p.Streams
		}
		if s < 1 {
			s = 1
		}
		servers = float64(s)
	case "dfs/du":
		servers = float64(c.Nodes)
	}

	// Per-class arrival geometry and service moments (seconds) at the
	// server station. srv is the server CPU occupancy per request: the
	// modeled service charge plus the transport's ring copies. ca2 is
	// the interarrival squared coefficient of variation (Poisson 1,
	// gamma shape 0.5 -> 2, weibull shape 0.7 -> ~2).
	type classArr struct {
		name       string
		streams    float64
		gap        float64 // per-stream mean interarrival (s)
		srv1, srv2 float64 // server occupancy moments
		ca2        float64
		transit    float64 // round trip excluding server occupancy and waits (s)
	}
	var classes []classArr
	gap := float64(p.BaseInterarrival.Seconds()) / c.Offered
	resp := float64(p.RPCRespBytes)
	switch c.Config {
	case "rpc/polling", "rpc/notified":
		base := c.serviceConfig().RPC.ServiceCost.Seconds()
		if c.Config == "rpc/notified" {
			base += cfg.Cost.NotifyDispatchCost.Seconds()
		}
		// Server occupancy: service charge CopyTime(args+resp), ring
		// read copy of args, ring write copy of resp. The occupancy is
		// affine in the argument size, so it inherits the size variance
		// E[X^2] = m^2 (1 + cv^2).
		occ := func(req float64) float64 { return base + copyT(2*req+2*resp) }
		a, b := base+copyT(2*resp), 2/copyBW
		s2 := func(m1, m2 float64) float64 { return a*a + 2*a*b*m1 + b*b*m2 }
		trans := func(req, rsp float64) float64 {
			return copyT(req) + m.DUMessage(hops, int(req)).Seconds() +
				m.DUMessage(hops, int(rsp)).Seconds() + copyT(rsp) +
				p.ClientCost.Seconds()
		}
		for _, k := range spec.Classes {
			m1, cv, ca := k.Size.Mean, k.Size.CV(), k.Interarrival.CV()
			classes = append(classes, classArr{k.Name, float64(k.Streams),
				k.Interarrival.Mean / float64(sim.Second),
				occ(m1), s2(m1, m1*m1*(1+cv*cv)), ca * ca, trans(m1, resp)})
		}
	case "socket/du", "socket/au":
		// Server occupancy: service charge CopyTime(size) plus the ring
		// write copy of the size-byte response.
		sm := float64(p.SocketBlockBytes)
		b := 2 / copyBW
		respTransfer := m.DUMessage(hops, p.SocketBlockBytes).Seconds()
		if c.Config == "socket/au" {
			respTransfer = (m.AUStreamTime(p.SocketBlockBytes) +
				m.MeshTransit(hops, m.WireSize(int(cfg.NIC.AUWordBytes)))).Seconds()
		}
		classes = append(classes, classArr{"bulk", float64(p.Streams), gap,
			b * sm, b * b * 1.25 * sm * sm, 2,
			m.DUMessage(hops, 16).Seconds() + respTransfer + copyT(sm) +
				p.ClientCost.Seconds()})
	case "dfs/du":
		// Remote fraction (n-1)/n crosses a home server; the local
		// fraction is a straight memory copy on the client.
		sm := float64(p.DFSBlockBytes)
		remote := 1.0
		if c.Nodes > 1 {
			remote = float64(c.Nodes-1) / float64(c.Nodes)
		}
		b := 2 / copyBW
		classes = append(classes, classArr{"block", float64(p.Streams), gap,
			remote * b * sm, remote * b * b * sm * sm, 2,
			remote*(m.DUMessage(hops, 8).Seconds()+
				m.DUMessage(hops, p.DFSBlockBytes).Seconds()+copyT(sm)) +
				(1-remote)*copyT(sm) + p.ClientCost.Seconds()})
	default:
		return nil, fmt.Errorf("harness: unknown load config %q", c.Config)
	}

	// Server-station aggregates: utilization and P-K load per server.
	var srvRho, srvLambdaS2 float64
	for _, cl := range classes {
		rate := cl.streams / cl.gap / servers
		srvRho += rate * cl.srv1
		srvLambdaS2 += rate * cl.srv2
	}
	// The notified RPC server spawns a handler per message — processor
	// sharing across requests rather than a FIFO queue.
	sharing := c.Config == "rpc/notified"
	srvWait := 0.0
	if !sharing && srvRho < 1 {
		srvWait = srvLambdaS2 / (2 * (1 - srvRho))
	}

	rows := make([]TwinLoadRow, 0, len(classes))
	for _, cl := range classes {
		// Stream station: the stream issues serial round trips against
		// the class gap, so the round trip itself is its service time.
		rt := cl.transit + cl.srv1 + srvWait
		strRho := rt / cl.gap
		rho := strRho
		if srvRho > rho {
			rho = srvRho
		}
		var sojourn float64
		switch {
		case rho >= 1:
			// Finite-horizon backlog: the open-loop driver does not
			// diverge, it accumulates queue for the whole arrival
			// horizon, so the average request waits half the final
			// backlog.
			horizon := float64(p.Requests) * cl.gap
			sojourn = (rho-1)*horizon/2 + rt
		case sharing:
			// Processor sharing stretches every resident round trip by
			// the server's background utilization; no stream queue on
			// top (concurrent handlers absorb bursts).
			sojourn = rt / (1 - srvRho)
		default:
			// M/G/1-style stream wait, derated (x 1/2) for the short
			// finite trace that never reaches the steady-state tail;
			// ca2 carries the interarrival burstiness.
			sojourn = cl.ca2*strRho*rt/(4*(1-strRho)) + rt
		}
		rows = append(rows, TwinLoadRow{
			Config: c.Config, Nodes: c.Nodes, Offered: c.Offered, Class: cl.name,
			Utilization: round3(rho),
			MeanSojourn: sim.Time(sojourn * 1e9),
		})
	}
	return rows, nil
}
