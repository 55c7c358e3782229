package harness

import (
	"encoding/json"
	"fmt"
	"io"
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

// loadConfigs are the service/dispatch combinations the load family
// sweeps: the RPC library under both dispatch modes, the sockets bulk
// service under both transfer mechanisms, and the DFS block service.
var loadConfigs = []string{
	"rpc/polling", "rpc/notified", "socket/du", "socket/au", "dfs/du",
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

// Canonical returns the deterministic encoding of the cell — the
// stream-seed root and the identity a result cache would key on.
func (c LoadCell) Canonical() ([]byte, error) {
	if c.Nodes < 1 || c.Nodes > machine.MaxNodes {
		return nil, fmt.Errorf("harness: load cell nodes must be in 1..%d, got %d", machine.MaxNodes, c.Nodes)
	}
	if c.Offered <= 0 {
		return nil, fmt.Errorf("harness: load cell offered multiplier must be > 0, got %g", c.Offered)
	}
	return json.Marshal(struct {
		Version int      `json:"v"`
		Kind    string   `json:"kind"`
		Cell    LoadCell `json:"cell"`
	}{Version: loadEncodingVersion, Kind: "load", Cell: c})
}

// spec builds the workload spec a cell generates from.
func (c LoadCell) spec() (*workload.Spec, error) {
	p := c.Params
	gap := float64(p.BaseInterarrival) / c.Offered
	spec := &workload.Spec{Nodes: c.Nodes}
	switch c.Config {
	case "rpc/polling", "rpc/notified":
		big := p.Streams / 4
		if big < 1 {
			big = 1
		}
		small := p.Streams - big
		if small < 1 {
			small = 1
		}
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
	case "socket/du", "socket/au":
		spec.Service = workload.Socket
		spec.Classes = []workload.Class{{
			Name: "bulk", Streams: p.Streams, Requests: p.Requests,
			Interarrival: workload.Dist{Kind: workload.DistGamma, Mean: gap, Shape: 0.5},
			Size:         workload.Dist{Kind: workload.DistGamma, Mean: float64(p.SocketBlockBytes), Shape: 4},
		}}
	case "dfs/du":
		spec.Service = workload.DFS
		spec.Classes = []workload.Class{{
			Name: "block", Streams: p.Streams, Requests: p.Requests,
			Interarrival: workload.Dist{Kind: workload.DistWeibull, Mean: gap, Shape: 0.7},
			Size:         workload.Dist{Kind: workload.DistDet, Mean: float64(p.DFSBlockBytes)},
		}}
		spec.DFSFiles = p.DFSFiles
		spec.DFSBlocksPerFile = p.DFSBlocksPerFile
	default:
		return nil, fmt.Errorf("harness: unknown load config %q (want one of %v)", c.Config, loadConfigs)
	}
	return spec, nil
}

// serviceConfig builds the driver's server-side configuration.
func (c LoadCell) serviceConfig() workload.ServiceConfig {
	cfg := workload.DefaultServiceConfig()
	cfg.ClientCost = c.Params.ClientCost
	switch c.Config {
	case "rpc/notified":
		cfg.RPC.Dispatch = rpc.Notified
	case "socket/au":
		cfg.Socket.Mode = ring.AU
	}
	return cfg
}

// GenerateTrace produces the cell's deterministic request trace. The
// per-stream PRNG seeds derive from the cell's canonical encoding, so
// the trace — and everything downstream of it — is a pure function of
// the cell's identity, independent of worker count or host state.
func (c LoadCell) GenerateTrace() (*workload.Trace, error) {
	spec, err := c.spec()
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
	spec, err := c.spec()
	if err != nil {
		return nil, sim.Census{}, err
	}
	if spec.Service != tr.Service {
		return nil, sim.Census{}, fmt.Errorf("harness: trace of the %s service cannot replay as load config %s (the %s service)",
			tr.Service, c.Config, spec.Service)
	}
	m := machine.New(machine.DefaultConfig(tr.Nodes))
	defer m.Close()
	rep, err := workload.Run(vmmc.NewSystem(m), c.serviceConfig(), tr)
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
	for _, name := range loadConfigs {
		for _, mult := range p.Offered {
			cells = append(cells, LoadCell{Config: name, Nodes: cfg.Nodes, Offered: mult, Params: p})
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
