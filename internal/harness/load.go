package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"shrimp/internal/machine"
	"shrimp/internal/ring"
	"shrimp/internal/rpc"
	"shrimp/internal/sim"
	"shrimp/internal/trace"
	"shrimp/internal/vmmc"
	"shrimp/internal/workload"
)

// LoadParams sizes the open-loop traffic experiments: how many client
// streams offer requests, at what base rate, with which request-size
// geometry per service. Like the app Params structs it rides in
// Workloads, so a load cell's canonical encoding embeds it and the
// result cache keys on it.
type LoadParams struct {
	// Streams is the total client-stream count per cell.
	Streams int `json:"streams"`
	// Requests is the per-stream request count.
	Requests int `json:"requests"`
	// BaseInterarrival is the mean gap between one stream's requests at
	// offered-load multiplier 1.0; multiplier m divides it by m.
	BaseInterarrival sim.Time `json:"base_interarrival"`
	// Offered lists the offered-load multipliers the sweep visits.
	Offered []float64 `json:"offered"`

	// RPC service geometry: the "small" class's mean request size, the
	// "big" class's fixed request size, and the common reply size.
	RPCSmallBytes int `json:"rpc_small_bytes"`
	RPCBigBytes   int `json:"rpc_big_bytes"`
	RPCRespBytes  int `json:"rpc_resp_bytes"`
	// SocketBlockBytes is the bulk-transfer class's mean block size.
	SocketBlockBytes int `json:"socket_block_bytes"`
	// DFS service geometry: fixed block size and the shared file set the
	// generator draws (file, block) reads from.
	DFSBlockBytes    int `json:"dfs_block_bytes"`
	DFSFiles         int `json:"dfs_files"`
	DFSBlocksPerFile int `json:"dfs_blocks_per_file"`
	// ClientCost is the modeled per-request client-side processing.
	ClientCost sim.Time `json:"client_cost"`
}

// DefaultLoadParams drives each service hard enough that the largest
// multiplier sits past the saturation knee at 16 nodes.
func DefaultLoadParams() LoadParams {
	return LoadParams{
		Streams:          8,
		Requests:         160,
		BaseInterarrival: 150 * sim.Microsecond,
		Offered:          []float64{0.5, 1, 2, 4},
		RPCSmallBytes:    128,
		RPCBigBytes:      4096,
		RPCRespBytes:     256,
		SocketBlockBytes: 8192,
		DFSBlockBytes:    8192,
		DFSFiles:         24,
		DFSBlocksPerFile: 64,
		ClientCost:       5 * sim.Microsecond,
	}
}

// QuickLoadParams is the tiny variant for tests and the golden sweep.
func QuickLoadParams() LoadParams {
	p := DefaultLoadParams()
	p.Streams = 4
	p.Requests = 40
	p.BaseInterarrival = 100 * sim.Microsecond
	p.Offered = []float64{0.5, 2}
	p.SocketBlockBytes = 2048
	p.DFSBlockBytes = 2048
	p.DFSFiles = 8
	p.DFSBlocksPerFile = 16
	return p
}

// loadService declares one service configuration of the load family:
// the traffic its cells generate, the server-side configuration the
// driver runs them under, and the twin's queueing inputs for them.
type loadService struct {
	name string
	// workload sets the spec's service and client classes; gap is the
	// per-stream mean interarrival at the cell's offered load (ns).
	workload func(spec *workload.Spec, p LoadParams, gap float64)
	// dispatch and mode set the driver's RPC dispatch and socket
	// transfer mode (zero values: the defaults, polling and DU); the
	// twin reads them back from that service configuration.
	dispatch rpc.Dispatch
	mode     ring.Mode
	// twin prices the service at the twin's server station: the
	// effective server count, and every class's server occupancy
	// moments, interarrival burstiness and rest of the round trip.
	twin func(lt *loadTwin, spec *workload.Spec) (servers float64, classes []twinClass)
	// sharing marks a server that spawns a handler per message, which
	// the twin models as processor sharing rather than a FIFO queue.
	sharing bool
}

// loadConfigs declares the service configurations the load family
// sweeps, in report order: the RPC library under both dispatch modes,
// the sockets bulk service under both transfer mechanisms, and the DFS
// block service.
var loadConfigs = []loadService{
	{name: "rpc/polling", workload: rpcWorkload, twin: rpcTwin},
	{name: "rpc/notified", workload: rpcWorkload, dispatch: rpc.Notified, twin: rpcTwin, sharing: true},
	{name: "socket/du", workload: socketWorkload, twin: socketTwin},
	{name: "socket/au", workload: socketWorkload, mode: ring.AU, twin: socketTwin},
	{name: "dfs/du", workload: dfsWorkload, twin: dfsTwin},
}

// rpcWorkload is a small and a big request class.
func rpcWorkload(spec *workload.Spec, p LoadParams, gap float64) {
	big := max(p.Streams/4, 1)
	small := max(p.Streams-big, 1)
	spec.Service = workload.RPC
	spec.Classes = []workload.Class{
		{
			Name: "small", Streams: small, Requests: p.Requests,
			Interarrival: workload.Dist{Kind: workload.DistPoisson, Mean: gap},
			Size:         workload.Dist{Kind: workload.DistUniform, Mean: float64(p.RPCSmallBytes), Shape: 0.5},
			RespBytes:    p.RPCRespBytes,
		},
		{
			Name: "big", Streams: big, Requests: p.Requests,
			Interarrival: workload.Dist{Kind: workload.DistPoisson, Mean: 4 * gap},
			Size:         workload.Dist{Kind: workload.DistDet, Mean: float64(p.RPCBigBytes)},
			RespBytes:    p.RPCRespBytes,
		},
	}
}

// rpcTwin reads each class's twin inputs off the workload spec; one
// server at node 0 takes every request.
func rpcTwin(lt *loadTwin, spec *workload.Spec) (float64, []twinClass) {
	m, p := lt.m, lt.c.Params
	resp := float64(p.RPCRespBytes)
	base := lt.svc.RPC.ServiceCost.Seconds()
	if lt.svc.RPC.Dispatch == rpc.Notified {
		base += lt.cfg.Cost.NotifyDispatchCost.Seconds()
	}
	// Server occupancy: service charge CopyTime(args+resp), ring
	// read copy of args, ring write copy of resp. The occupancy is
	// affine in the argument size, so it inherits the size variance
	// E[X^2] = m^2 (1 + cv^2).
	occ := func(req float64) float64 { return base + lt.copyT(2*req+2*resp) }
	a, b := base+lt.copyT(2*resp), 2/lt.copyBW
	s2 := func(m1, m2 float64) float64 { return a*a + 2*a*b*m1 + b*b*m2 }
	trans := func(req, rsp float64) float64 {
		return lt.copyT(req) + m.DUMessage(lt.hops, int(req)).Seconds() +
			m.DUMessage(lt.hops, int(rsp)).Seconds() + lt.copyT(rsp) +
			p.ClientCost.Seconds()
	}
	classes := make([]twinClass, 0, len(spec.Classes))
	for _, k := range spec.Classes {
		m1, cv, ca := k.Size.Mean, k.Size.CV(), k.Interarrival.CV()
		classes = append(classes, twinClass{k.Name, float64(k.Streams),
			k.Interarrival.Mean / float64(sim.Second),
			occ(m1), s2(m1, m1*m1*(1+cv*cv)), ca * ca, trans(m1, resp)})
	}
	return 1, classes
}

// socketWorkload is one bulk-transfer class with bursty arrivals.
func socketWorkload(spec *workload.Spec, p LoadParams, gap float64) {
	spec.Service = workload.Socket
	spec.Classes = []workload.Class{{
		Name: "bulk", Streams: p.Streams, Requests: p.Requests,
		Interarrival: workload.Dist{Kind: workload.DistGamma, Mean: gap, Shape: 0.5},
		Size:         workload.Dist{Kind: workload.DistGamma, Mean: float64(p.SocketBlockBytes), Shape: 4},
	}}
}

// socketTwin prices the bulk class. Each stream pins the upper-half
// server its connection dialed; server occupancy is the service charge
// CopyTime(size) plus the ring write copy of the size-byte response.
func socketTwin(lt *loadTwin, _ *workload.Spec) (float64, []twinClass) {
	c, m, p := lt.c, lt.m, lt.c.Params
	servers := max(min(c.Nodes-c.Nodes/2, p.Streams), 1)
	sm := float64(p.SocketBlockBytes)
	b := 2 / lt.copyBW
	respTransfer := m.DUMessage(lt.hops, p.SocketBlockBytes).Seconds()
	if lt.svc.Socket.Mode == ring.AU {
		respTransfer = (m.AUStreamTime(p.SocketBlockBytes) +
			m.MeshTransit(lt.hops, m.WireSize(int(lt.cfg.NIC.AUWordBytes)))).Seconds()
	}
	return float64(servers), []twinClass{{"bulk", float64(p.Streams), lt.gap,
		b * sm, b * b * 1.25 * sm * sm, 2,
		m.DUMessage(lt.hops, 16).Seconds() + respTransfer + lt.copyT(sm) +
			p.ClientCost.Seconds()}}
}

// dfsWorkload is one class of block reads over a shared file set.
func dfsWorkload(spec *workload.Spec, p LoadParams, gap float64) {
	spec.Service = workload.DFS
	spec.Classes = []workload.Class{{
		Name: "block", Streams: p.Streams, Requests: p.Requests,
		Interarrival: workload.Dist{Kind: workload.DistWeibull, Mean: gap, Shape: 0.7},
		Size:         workload.Dist{Kind: workload.DistDet, Mean: float64(p.DFSBlockBytes)},
	}}
	spec.DFSFiles = p.DFSFiles
	spec.DFSBlocksPerFile = p.DFSBlocksPerFile
}

// dfsTwin prices the block class. Block homes spread over every node;
// the remote fraction (n-1)/n crosses a home server, the local fraction
// is a straight memory copy on the client.
func dfsTwin(lt *loadTwin, _ *workload.Spec) (float64, []twinClass) {
	c, m, p := lt.c, lt.m, lt.c.Params
	sm := float64(p.DFSBlockBytes)
	remote := 1.0
	if c.Nodes > 1 {
		remote = float64(c.Nodes-1) / float64(c.Nodes)
	}
	b := 2 / lt.copyBW
	return float64(c.Nodes), []twinClass{{"block", float64(p.Streams), lt.gap,
		remote * b * sm, remote * b * b * sm * sm, 2,
		remote*(m.DUMessage(lt.hops, 8).Seconds()+
			m.DUMessage(lt.hops, p.DFSBlockBytes).Seconds()+lt.copyT(sm)) +
			(1-remote)*lt.copyT(sm) + p.ClientCost.Seconds()}}
}

// LoadCell is one open-loop simulation: a service configuration, a
// machine size, an offered-load multiplier and the generator
// parameters. It is plain data, like CellSpec, so it crosses the API
// boundary and hashes for seeding.
type LoadCell struct {
	Config  string     `json:"config"`
	Nodes   int        `json:"nodes"`
	Offered float64    `json:"offered"`
	Params  LoadParams `json:"params"`
}

// loadEncodingVersion tags the canonical load-cell encoding; bump it
// whenever generator or driver semantics change a cell's output.
const loadEncodingVersion = 1

// service checks the cell's machine size and offered load and looks
// its configuration up in loadConfigs.
func (c LoadCell) service() (*loadService, error) {
	if c.Nodes < 1 || c.Nodes > machine.MaxNodes {
		return nil, fmt.Errorf("harness: load cell nodes must be in 1..%d, got %d", machine.MaxNodes, c.Nodes)
	}
	if !(c.Offered > 0) || math.IsInf(c.Offered, 1) {
		return nil, fmt.Errorf("harness: load cell offered multiplier must be finite and > 0, got %g", c.Offered)
	}
	names := make([]string, len(loadConfigs))
	for i := range loadConfigs {
		if loadConfigs[i].name == c.Config {
			return &loadConfigs[i], nil
		}
		names[i] = loadConfigs[i].name
	}
	return nil, fmt.Errorf("harness: unknown load config %q (want one of %v)", c.Config, names)
}

// Canonical returns the deterministic encoding of the cell — the
// stream-seed root and the identity a result cache would key on.
func (c LoadCell) Canonical() ([]byte, error) {
	if _, err := c.service(); err != nil {
		return nil, err
	}
	return json.Marshal(struct {
		Version int      `json:"v"`
		Kind    string   `json:"kind"`
		Cell    LoadCell `json:"cell"`
	}{Version: loadEncodingVersion, Kind: "load", Cell: c})
}

// spec builds the workload spec a cell generates from, and returns it
// with the service that declares it.
func (c LoadCell) spec() (*workload.Spec, *loadService, error) {
	svc, err := c.service()
	if err != nil {
		return nil, nil, err
	}
	spec := &workload.Spec{Nodes: c.Nodes}
	svc.workload(spec, c.Params, float64(c.Params.BaseInterarrival)/c.Offered)
	return spec, svc, nil
}

// serviceConfig builds the driver's server-side configuration.
func (svc *loadService) serviceConfig(c LoadCell) workload.ServiceConfig {
	cfg := workload.DefaultServiceConfig()
	cfg.ClientCost = c.Params.ClientCost
	cfg.RPC.Dispatch = svc.dispatch
	cfg.Socket.Mode = svc.mode
	return cfg
}

// GenerateTrace produces the cell's deterministic request trace. The
// per-stream PRNG seeds derive from the cell's canonical encoding, so
// the trace — and everything downstream of it — is a pure function of
// the cell's identity, independent of worker count or host state.
func (c LoadCell) GenerateTrace() (*workload.Trace, error) {
	spec, _, err := c.spec()
	if err != nil {
		return nil, err
	}
	key, err := c.Canonical()
	if err != nil {
		return nil, err
	}
	return workload.Generate(spec, workload.SeedFromKey(key))
}

// LoadRow is one (cell, class) line of the load report: offered load
// against goodput, with the sojourn-time distribution of that class.
type LoadRow struct {
	Config  string  `json:"config"`
	Nodes   int     `json:"nodes"`
	Offered float64 `json:"offered"`
	Class   string  `json:"class"`

	Requests int64 `json:"requests"`
	Bytes    int64 `json:"bytes"`
	// OfferedMBps is the load the generator asked for (trace bytes over
	// the arrival horizon); GoodputMBps is what the service delivered
	// (the same bytes over the actual completion makespan). The two
	// diverge past the saturation knee.
	OfferedMBps float64 `json:"offered_mbps"`
	GoodputMBps float64 `json:"goodput_mbps"`

	P50Sojourn sim.Time `json:"p50_sojourn"`
	P90Sojourn sim.Time `json:"p90_sojourn"`
	P99Sojourn sim.Time `json:"p99_sojourn"`
	MaxSojourn sim.Time `json:"max_sojourn"`

	Elapsed sim.Time `json:"elapsed"`
	Horizon sim.Time `json:"horizon"`

	// Sojourn is the full histogram, for metric export; it stays out of
	// the JSON rows.
	Sojourn *trace.Hist `json:"-"`
}

// mbps converts a byte count over a simulated duration to MB/s.
func mbps(bytes int64, d sim.Time) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / d.Seconds()
}

// RunLoadTrace replays a recorded trace under the cell's service
// configuration on a fresh machine and flattens the report into rows.
// The trace fully determines the arrival process, so a recorded
// artifact replays to the identical report. The trace must drive the
// cell's service; only the server-side configuration (say, RPC
// dispatch) may differ from the recording.
func RunLoadTrace(c LoadCell, tr *workload.Trace) ([]LoadRow, error) {
	rows, _, err := runLoadTrace(c, tr)
	return rows, err
}

// runLoadTrace is RunLoadTrace that also returns the engine's dispatch
// census for the run.
func runLoadTrace(c LoadCell, tr *workload.Trace) ([]LoadRow, sim.Census, error) {
	spec, svc, err := c.spec()
	if err != nil {
		return nil, sim.Census{}, err
	}
	if spec.Service != tr.Service {
		return nil, sim.Census{}, fmt.Errorf("harness: trace of the %s service cannot replay as load config %s (the %s service)",
			tr.Service, c.Config, spec.Service)
	}
	m := machine.New(machine.DefaultConfig(tr.Nodes))
	defer m.Close()
	rep, err := workload.Run(vmmc.NewSystem(m), svc.serviceConfig(c), tr)
	if err != nil {
		return nil, sim.Census{}, err
	}
	rows := make([]LoadRow, 0, len(rep.Classes))
	for _, cs := range rep.Classes {
		rows = append(rows, LoadRow{
			Config: c.Config, Nodes: tr.Nodes, Offered: c.Offered, Class: cs.Class,
			Requests:    cs.Requests,
			Bytes:       cs.Bytes,
			OfferedMBps: mbps(cs.Bytes, rep.Horizon),
			GoodputMBps: mbps(cs.Bytes, rep.Elapsed),
			P50Sojourn:  sim.Time(cs.Sojourn.Quantile(0.50)),
			P90Sojourn:  sim.Time(cs.Sojourn.Quantile(0.90)),
			P99Sojourn:  sim.Time(cs.Sojourn.Quantile(0.99)),
			MaxSojourn:  sim.Time(cs.Sojourn.Max()),
			Elapsed:     rep.Elapsed,
			Horizon:     rep.Horizon,
			Sojourn:     cs.Sojourn,
		})
	}
	return rows, m.E.Census(), nil
}

// RunLoadCell generates the cell's trace and replays it.
func RunLoadCell(c LoadCell) ([]LoadRow, error) {
	tr, err := c.GenerateTrace()
	if err != nil {
		return nil, err
	}
	return RunLoadTrace(c, tr)
}

// LoadCells builds the sweep grid: every service configuration at every
// offered-load multiplier.
func LoadCells(cfg Config) []LoadCell {
	p := cfg.Workloads.Load
	cells := make([]LoadCell, 0, len(loadConfigs)*len(p.Offered))
	for _, svc := range loadConfigs {
		for _, mult := range p.Offered {
			cells = append(cells, LoadCell{Config: svc.name, Nodes: cfg.Nodes, Offered: mult, Params: p})
		}
	}
	return cells
}

// LoadSweep runs the open-loop grid on the sweep's worker pool. Rows
// are collected by cell index, so output is byte-identical at any
// Workers setting; each cell's trace is a pure function of the cell.
func LoadSweep(cfg Config) []LoadRow {
	var out []LoadRow
	for _, rows := range cfg.runLoadCells(LoadCells(cfg)) {
		out = append(out, rows...)
	}
	return out
}

// runLoadCells runs load cells on the sweep's worker pool and returns
// each cell's rows by cell index. Cancelling cfg.Ctx stops at the next
// cell boundary; cells that never start keep nil rows.
func (cfg *Config) runLoadCells(cells []LoadCell) [][]LoadRow {
	perCell := make([][]LoadRow, len(cells))
	forEachCell(cfg.Ctx, len(cells), cfg.Workers, func(i int) {
		rows, err := RunLoadCell(cells[i])
		if err != nil {
			panic("harness: invalid load cell: " + err.Error())
		}
		perCell[i] = rows
	})
	return perCell
}

// PrintLoad renders the goodput-vs-offered-load report.
func PrintLoad(w io.Writer, cfg Config, rows []LoadRow) {
	header(w, "Open-loop load: goodput vs offered load per service class")
	fmt.Fprintf(w, "%-13s %8s %-6s %7s %9s %9s %10s %10s %10s\n",
		"Config", "Offered", "Class", "Reqs", "Off MB/s", "Good MB/s", "p50", "p90", "p99")
	for _, r := range rows {
		fmt.Fprintf(w, "%-13s %7.2fx %-6s %7d %9.2f %9.2f %10v %10v %10v\n",
			r.Config, r.Offered, r.Class, r.Requests,
			r.OfferedMBps, r.GoodputMBps, r.P50Sojourn, r.P90Sojourn, r.P99Sojourn)
	}
	fmt.Fprintln(w, "sojourn = completion - scheduled arrival (open loop: backlog included)")
}

// LoadClassTotals aggregates rows by class name (summed requests and
// bytes, merged sojourn histograms), for metric export. Keys are
// returned sorted so iteration order is deterministic.
func LoadClassTotals(rows []LoadRow) (classes []string, reqs map[string]int64, bytes map[string]int64, soj map[string]*trace.Hist) {
	reqs = map[string]int64{}
	bytes = map[string]int64{}
	soj = map[string]*trace.Hist{}
	for _, r := range rows {
		reqs[r.Class] += r.Requests
		bytes[r.Class] += r.Bytes
		if r.Sojourn != nil {
			h, ok := soj[r.Class]
			if !ok {
				h = &trace.Hist{}
				soj[r.Class] = h
			}
			h.Merge(r.Sojourn)
		}
	}
	for name := range reqs {
		classes = append(classes, name)
	}
	sort.Strings(classes)
	return classes, reqs, bytes, soj
}
