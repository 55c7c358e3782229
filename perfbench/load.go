package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"shrimp/internal/harness"
	"shrimp/internal/trace"
)

// pins are the reference outputs the benchmark checks that have no
// golden digest elsewhere in the repository: the simulated counts and
// internal/trace event counts of one sweep-quick pass, and the JSON
// digest and counts of one load-open pass. A change that alters
// simulated behaviour on purpose updates them together with
// scripts/golden.sha256.
type pins struct {
	SweepQuickCounts      map[string]int64 `json:"sweep_quick_counts"`
	SweepQuickTraceCounts map[string]int64 `json:"sweep_quick_trace_counts"`
	LoadOpenDigest        string           `json:"load_open_digest"`
	LoadOpenCounts        map[string]int64 `json:"load_open_counts"`
}

//go:embed pinned.json
var pinnedJSON []byte

var pinned = func() pins {
	var p pins
	if err := json.Unmarshal(pinnedJSON, &p); err != nil {
		panic("pinned.json: " + err.Error())
	}
	return p
}()

// loadGrid is the load-open set-up: the hidden load family's cells at
// DefaultLoadParams and 16 nodes, 5 service configurations times 4
// offered-load multipliers.
type loadGrid struct {
	cells []harness.LoadCell
}

func newLoadGrid() (*loadGrid, error) {
	cfg := harness.DefaultExperimentConfig()
	cells := harness.LoadCells(cfg)
	for _, c := range cells {
		// The canonical encoding is each cell's stream-seed root; a cell
		// that cannot encode cannot run.
		if _, err := c.Canonical(); err != nil {
			return nil, err
		}
	}
	return &loadGrid{cells: cells}, nil
}

// loadPass is one pass over the grid, each cell timed as trace
// generation followed by the load simulation.
type loadPass struct {
	wall     time.Duration
	gen, sim []time.Duration
	digest   string
	counts   map[string]int64
}

func (g *loadGrid) pass(log *spanLog) (loadPass, error) {
	var p loadPass
	var rows []harness.LoadRow
	t0 := time.Now()
	for i, c := range g.cells {
		req := fmt.Sprintf("load/%d", i)
		cs := log.begin("cell", req, 0)
		gs := log.begin("trace-generation", req, cs)
		t1 := time.Now()
		tr, err := c.GenerateTrace()
		if err != nil {
			return p, err
		}
		t2 := time.Now()
		log.end(gs)
		ss := log.begin("load-simulation", req, cs)
		r, err := harness.RunLoadTrace(c, tr)
		if err != nil {
			return p, err
		}
		t3 := time.Now()
		log.end(ss)
		log.end(cs)
		p.gen = append(p.gen, t2.Sub(t1))
		p.sim = append(p.sim, t3.Sub(t2))
		rows = append(rows, r...)
	}
	p.wall = time.Since(t0)

	var buf bytes.Buffer
	if err := harness.EmitJSON(&buf, "load", rows); err != nil {
		return p, err
	}
	sum := sha256.Sum256(buf.Bytes())
	p.digest = hex.EncodeToString(sum[:])
	var soj trace.Hist
	p.counts = map[string]int64{}
	for _, r := range rows {
		p.counts["workload.requests"] += r.Requests
		p.counts["workload.bytes"] += r.Bytes
		soj.Merge(r.Sojourn)
	}
	p.counts["workload.sojourn_p99_ns"] = soj.Quantile(0.99)
	return p, nil
}

// check compares a pass with the pinned digest and counts, counting
// every cell of a mismatching pass as failed.
func (g *loadGrid) check(out *outcome, p loadPass) {
	out.attempted += len(p.gen)
	if p.digest != pinned.LoadOpenDigest {
		out.fail(len(p.gen), "load-open JSON digest %s, pinned %s", p.digest, pinned.LoadOpenDigest)
	} else if bad := diffCounts(p.counts, pinned.LoadOpenCounts); bad != "" {
		out.fail(len(p.gen), "load-open simulated counts: %s", bad)
	}
}

// minLoadPasses is the fewest whole passes a load-open run measures:
// enough for every cell's median to outvote a slow pass, and for the
// p90 of the pooled cell times to have enough samples beyond it.
const minLoadPasses = 5

// runLoad measures whole passes of the open-loop load grid until the
// run's time is up. ops_per_s is the grid's cells over the sum of each
// cell's median time; the latency percentiles pool every cell time.
func runLoad(o options) (*outcome, error) {
	out := newOutcome()
	if o.trace {
		g, err := newLoadGrid()
		if err != nil {
			return nil, err
		}
		return out, traceLoad(o, g, out)
	}
	setup, err := timeReady(o)
	if err != nil {
		return nil, err
	}
	g, err := newLoadGrid()
	if err != nil {
		return nil, err
	}
	out.metrics["setup_s"] = setup

	var passes []loadPass
	var cellTimes []time.Duration
	cpu0, t0 := selfCPU(), time.Now()
	for time.Since(t0) < time.Duration(o.seconds*float64(time.Second)) ||
		len(passes) < minLoadPasses || !tailOK(len(cellTimes), 90) {
		if time.Since(t0) > maxMeasure {
			return nil, fmt.Errorf("load-open: %d cells after %v, too few for a p90", len(cellTimes), maxMeasure)
		}
		p, err := g.pass(nil)
		if err != nil {
			return nil, err
		}
		g.check(out, p)
		passes = append(passes, p)
		for i := range p.gen {
			cellTimes = append(cellTimes, p.gen[i]+p.sim[i])
		}
	}
	cpu := selfCPU() - cpu0

	var wall time.Duration
	for i := range g.cells {
		var ds []float64
		for _, p := range passes {
			ds = append(ds, float64(p.gen[i]+p.sim[i]))
		}
		wall += time.Duration(median(ds))
	}
	out.metrics["ops_per_s"] = float64(len(g.cells)) / wall.Seconds()
	out.metrics["cpu_ms_per_op"] = ms(cpu) / float64(len(cellTimes))
	latencyMetrics(out, cellTimes)
	out.metrics["peak_rss_mb"] = mb(selfMaxRSS())
	return out, nil
}

// traceLoad is the traced load-open run: one untraced reference pass
// for the per-layer times, runtime deltas and counts, then one pass
// with spans under the CPU profiler.
func traceLoad(o options, g *loadGrid, out *outcome) error {
	rt0 := readRuntime()
	ref, err := g.pass(nil)
	if err != nil {
		return err
	}
	runtimeMetrics(out, rt0, readRuntime(), len(ref.gen))
	g.check(out, ref)
	out.metrics["workload.gen_ms"] = median(msAll(ref.gen))
	out.metrics["harness.load_sim_ms"] = median(msAll(ref.sim))
	out.metrics["workload.requests"] = float64(ref.counts["workload.requests"])
	out.metrics["workload.bytes"] = float64(ref.counts["workload.bytes"])
	out.metrics["workload.sojourn_p99_us"] = float64(ref.counts["workload.sojourn_p99_ns"]) / 1e3

	log := newSpanLog()
	var traced loadPass
	path, err := profilePath(o)
	if err != nil {
		return err
	}
	shares, err := cpuProfile(path, func() error {
		var err error
		traced, err = g.pass(log)
		return err
	})
	if err != nil {
		return err
	}
	g.check(out, traced)
	for l, s := range shares {
		out.metrics["cpu_share."+l] = s
	}
	out.metrics["trace.overhead_frac"] = traced.wall.Seconds()/ref.wall.Seconds() - 1
	out.spans = log
	return nil
}
