package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"shrimp/internal/harness"
	"shrimp/internal/stats"
	"shrimp/internal/trace"
)

// simCounters are the simulated counts summed from Result.Counters.
// They are pure functions of the cells run, so they must repeat
// exactly across runs and between traced and untraced passes.
var simCounters = []struct {
	name string
	get  func(*stats.Counters) int64
}{
	{"vmmc.msgs", func(c *stats.Counters) int64 { return c.MessagesSent }},
	{"vmmc.notifications", func(c *stats.Counters) int64 { return c.Notifications }},
	{"nic.au_packets", func(c *stats.Counters) int64 { return c.AUPackets }},
	{"nic.du_transfers", func(c *stats.Counters) int64 { return c.DUTransfers }},
	{"nic.flow_stalls", func(c *stats.Counters) int64 { return c.FlowStalls }},
	{"machine.interrupts", func(c *stats.Counters) int64 { return c.Interrupts }},
	{"machine.syscalls", func(c *stats.Counters) int64 { return c.Syscalls }},
	{"svm.page_faults", func(c *stats.Counters) int64 { return c.PageFaults }},
	{"svm.diffs_created", func(c *stats.Counters) int64 { return c.DiffsCreated }},
	{"svm.pages_fetched", func(c *stats.Counters) int64 { return c.PagesFetched }},
	{"mesh.bytes_sent", func(c *stats.Counters) int64 { return c.BytesSent }},
}

// counterMap renders summed counters under their metric names.
func counterMap(c *stats.Counters) map[string]int64 {
	out := map[string]int64{}
	for _, sc := range simCounters {
		out[sc.name] = sc.get(c)
	}
	return out
}

// traceKinds are the internal/trace event kinds the traced sweep
// counts, one per layer boundary the paper measures.
var traceKinds = []trace.Kind{
	trace.KProcSpawn, trace.KPktSend, trace.KLinkHop, trace.KFIFOEnq,
	trace.KCombineHit, trace.KDUStart, trace.KInterrupt, trace.KNotify,
	trace.KPageFault, trace.KDiffCreate, trace.KBarEnter,
}

// apiFamilies are the App.API() values, keyed to their metric suffix.
var apiFamilies = map[string]string{"SVM": "svm", "VMMC": "vmmc", "NX": "nx", "Sockets": "sockets"}

// sweepGrid is the sweep-quick set-up: the registry experiments of
// "-exp all" at 16 nodes with the quick workloads, every cell's API
// family by canonical key, and the golden digest of the JSON output.
type sweepGrid struct {
	cfg    harness.Config
	exps   []harness.Experiment
	cells  int               // cells per pass
	family map[string]string // canonical key -> API family suffix
	golden string            // hex SHA-256 of `shrimpbench -exp all -quick -json`
}

func newSweepGrid() (*sweepGrid, error) {
	g := &sweepGrid{cfg: harness.DefaultExperimentConfig(), family: map[string]string{}}
	g.cfg.Workloads = harness.QuickWorkloads()
	g.cfg.Workers = 1
	for _, e := range harness.Experiments() {
		if e.Hidden {
			continue
		}
		g.exps = append(g.exps, e)
		if e.Cells == nil {
			continue
		}
		for _, c := range e.Cells(g.cfg) {
			key, err := c.Canonical(&g.cfg.Workloads)
			if err != nil {
				return nil, err
			}
			app, err := harness.ParseApp(c.App)
			if err != nil {
				return nil, err
			}
			g.family[string(key)] = apiFamilies[app.API()]
			g.cells++
		}
	}
	golden, err := goldenDigest("scripts/golden.sha256", "json")
	if err != nil {
		return nil, err
	}
	g.golden = golden
	return g, nil
}

// goldenDigest reads one named digest from a golden checksum file.
func goldenDigest(path, name string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", fmt.Errorf("golden digests: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 2 && fields[0] == name {
			return fields[1], nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", fmt.Errorf("golden digests: %w", err)
	}
	return "", fmt.Errorf("golden digests: no %q line in %s", name, path)
}

// probeCache is a harness.CellCache that never hits. With one worker
// the harness calls Get for a grid's cells, then Put after each cell it
// simulates, so the gaps between calls time each cell from outside the
// harness without changing what it simulates.
type probeCache struct {
	last  time.Time
	cells []cellTiming
}

type cellTiming struct {
	key string
	d   time.Duration
	res harness.Result
}

func (p *probeCache) Get([]byte) (harness.Result, bool) {
	p.last = time.Now()
	return harness.Result{}, false
}

func (p *probeCache) Put(key []byte, r harness.Result) {
	now := time.Now()
	p.cells = append(p.cells, cellTiming{key: string(key), d: now.Sub(p.last), res: r})
	p.last = now
}

// sweepPass is one untraced pass through the registry: every experiment
// run and emitted exactly as `shrimpbench -exp all -quick -json` does,
// with the wall and CPU time of each experiment.
type sweepPass struct {
	wall    time.Duration
	digest  string
	cells   []cellTiming
	expWall []time.Duration
	expCPU  []time.Duration
}

func (g *sweepGrid) pass() (sweepPass, error) {
	probe := &probeCache{}
	cfg := g.cfg
	cfg.Cache = probe
	var buf bytes.Buffer
	var p sweepPass
	t0 := time.Now()
	for _, e := range g.exps {
		c0, te := selfCPU(), time.Now()
		if err := harness.EmitJSON(&buf, e.Name, e.Run(cfg)); err != nil {
			return sweepPass{}, err
		}
		p.expWall = append(p.expWall, time.Since(te))
		p.expCPU = append(p.expCPU, selfCPU()-c0)
	}
	p.wall = time.Since(t0)
	sum := sha256.Sum256(buf.Bytes())
	p.digest = hex.EncodeToString(sum[:])
	p.cells = probe.cells
	return p, nil
}

// check compares a pass with the golden digest and the pinned counts,
// counting every cell of a mismatching pass as failed.
func (g *sweepGrid) check(out *outcome, p sweepPass) {
	out.attempted += len(p.cells)
	switch {
	case len(p.cells) != g.cells:
		out.fail(len(p.cells), "sweep-quick ran %d cells, want %d", len(p.cells), g.cells)
	case p.digest != g.golden:
		out.fail(len(p.cells), "sweep-quick JSON digest %s, golden %s", p.digest, g.golden)
	default:
		var sum stats.Counters
		for _, c := range p.cells {
			sum.Add(&c.res.Counters)
		}
		if bad := diffCounts(counterMap(&sum), pinned.SweepQuickCounts); bad != "" {
			out.fail(len(p.cells), "sweep-quick simulated counts: %s", bad)
		}
	}
}

// minSweepPasses is the fewest whole passes a sweep-quick run measures,
// so every per-experiment and per-cell median has one slow pass to
// outvote.
const minSweepPasses = 3

// runSweep measures whole passes of the quick paper sweep until the
// run's time is up. Each experiment's wall and CPU time and each cell's
// time is the median over the passes, which keeps a stall that hits one
// pass out of every metric; the metrics are then computed over one
// pass made of those medians.
func runSweep(o options) (*outcome, error) {
	out := newOutcome()
	if o.trace {
		g, err := newSweepGrid()
		if err != nil {
			return nil, err
		}
		return out, traceSweep(o, g, out)
	}
	setup, err := timeReady(o)
	if err != nil {
		return nil, err
	}
	g, err := newSweepGrid()
	if err != nil {
		return nil, err
	}
	out.metrics["setup_s"] = setup
	if !tailOK(g.cells, 90) {
		return nil, fmt.Errorf("sweep-quick: %d cells per pass, too few for a p90", g.cells)
	}

	var passes []sweepPass
	t0 := time.Now()
	for n := 0; time.Since(t0) < time.Duration(o.seconds*float64(time.Second)) || n < minSweepPasses; n++ {
		if time.Since(t0) > maxMeasure {
			return nil, fmt.Errorf("sweep-quick: %d passes after %v, too few", n, maxMeasure)
		}
		p, err := g.pass()
		if err != nil {
			return nil, err
		}
		g.check(out, p)
		// A pass that ran other cells than the grid's has failed them
		// all and cannot line up with the other passes cell by cell.
		if len(p.cells) == g.cells {
			passes = append(passes, p)
		}
	}
	if len(passes) == 0 {
		return nil, fmt.Errorf("sweep-quick: no pass ran the grid's %d cells", g.cells)
	}

	var wall, cpu time.Duration
	for e := range g.exps {
		var ws, cs []float64
		for _, p := range passes {
			ws = append(ws, float64(p.expWall[e]))
			cs = append(cs, float64(p.expCPU[e]))
		}
		wall += time.Duration(median(ws))
		cpu += time.Duration(median(cs))
	}
	cellMedians := make([]float64, g.cells)
	for i := range cellMedians {
		var ds []float64
		for _, p := range passes {
			if p.cells[i].key != passes[0].cells[i].key {
				return nil, fmt.Errorf("sweep-quick: passes ran their cells in different orders")
			}
			ds = append(ds, ms(p.cells[i].d))
		}
		cellMedians[i] = median(ds)
	}
	out.metrics["ops_per_s"] = float64(g.cells) / wall.Seconds()
	out.metrics["cpu_ms_per_op"] = ms(cpu) / float64(g.cells)
	out.metrics["op_p50_ms"] = percentile(cellMedians, 50)
	out.metrics["op_p90_ms"] = percentile(cellMedians, 90)
	out.latencySamples = len(cellMedians)
	out.metrics["peak_rss_mb"] = mb(selfMaxRSS())
	return out, nil
}

// traceSweep is the traced sweep-quick run: one untraced reference
// pass through the registry (per-cell times by API family, host time
// per simulated message, runtime deltas, simulated counts), then one
// traced pass that re-runs every cell through harness.Run with a trace
// recorder attached, under the CPU profiler, with a span per
// experiment and per cell.
func traceSweep(o options, g *sweepGrid, out *outcome) error {
	rt0 := readRuntime()
	ref, err := g.pass()
	if err != nil {
		return err
	}
	runtimeMetrics(out, rt0, readRuntime(), len(ref.cells))
	g.check(out, ref)

	byFamily := map[string][]float64{}
	refResult := map[string]harness.Result{}
	var sum stats.Counters
	var cellNs int64
	for _, c := range ref.cells {
		byFamily[g.family[c.key]] = append(byFamily[g.family[c.key]], ms(c.d))
		refResult[c.key] = c.res
		sum.Add(&c.res.Counters)
		cellNs += c.d.Nanoseconds()
	}
	for _, f := range apiFamilies {
		out.metrics["harness.cell_ms."+f] = median(byFamily[f])
	}
	if msgs := sum.MessagesSent + sum.AUPackets; msgs > 0 {
		out.metrics["harness.ns_per_sim_msg"] = float64(cellNs) / float64(msgs)
	}
	for name, v := range counterMap(&sum) {
		out.metrics[name] = float64(v)
	}

	var mask trace.Mask
	for _, k := range traceKinds {
		mask.Set(k)
	}
	opts := &trace.Options{Filter: mask}
	kinds := map[trace.Kind]int64{}
	log := newSpanLog()
	var traced stats.Counters
	var tracedWall time.Duration
	path, err := profilePath(o)
	if err != nil {
		return err
	}
	shares, err := cpuProfile(path, func() error {
		t0 := time.Now()
		defer func() { tracedWall = time.Since(t0) }()
		for _, e := range g.exps {
			es := log.begin("experiment", e.Name, 0)
			if e.Cells == nil {
				e.Run(g.cfg)
				log.end(es)
				continue
			}
			for i, c := range e.Cells(g.cfg) {
				key, err := c.Canonical(&g.cfg.Workloads)
				if err != nil {
					return err
				}
				spec, err := c.Compile()
				if err != nil {
					return err
				}
				spec.Trace = opts
				req := fmt.Sprintf("%s/%d", e.Name, i)
				cs := log.begin("cell", req, es)
				r := harness.Run(spec, &g.cfg.Workloads)
				log.end(cs)
				out.attempted++
				for _, ev := range r.Trace.Events() {
					kinds[ev.Kind]++
				}
				r.Trace = nil
				traced.Add(&r.Counters)
				if want, ok := refResult[string(key)]; !ok || r != want {
					out.fail(1, "traced cell %s differs from the untraced run", req)
				}
			}
			log.end(es)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if bad := diffCounts(counterMap(&traced), pinned.SweepQuickCounts); bad != "" {
		out.fail(1, "traced sweep-quick simulated counts: %s", bad)
	}
	kindCounts := map[string]int64{}
	for _, k := range traceKinds {
		kindCounts["trace."+k.String()] = kinds[k]
		out.metrics["trace."+k.String()] = float64(kinds[k])
	}
	if bad := diffCounts(kindCounts, pinned.SweepQuickTraceCounts); bad != "" {
		out.fail(1, "traced sweep-quick event counts: %s", bad)
	}
	for l, s := range shares {
		out.metrics["cpu_share."+l] = s
	}
	out.metrics["trace.overhead_frac"] = tracedWall.Seconds()/ref.wall.Seconds() - 1
	out.spans = log
	return nil
}

// diffCounts describes how got differs from want, or returns "".
func diffCounts(got, want map[string]int64) string {
	var diffs []string
	for name, w := range want {
		if got[name] != w {
			diffs = append(diffs, fmt.Sprintf("%s=%d want %d", name, got[name], w))
		}
	}
	for name, g := range got {
		if _, ok := want[name]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s=%d not pinned", name, g))
		}
	}
	sort.Strings(diffs)
	return strings.Join(diffs, ", ")
}
