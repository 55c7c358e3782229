package harness

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"shrimp/internal/sim"
)

// CalibPair is one (twin, simulator) comparison point: a cell of an
// experiment grid, one latency microbenchmark, or one load class.
type CalibPair struct {
	Label string  `json:"label"`
	TwinU float64 `json:"twin_us"`
	SimU  float64 `json:"sim_us"`
	// ErrPct is the signed relative error of the twin against the
	// simulator, in percent.
	ErrPct float64 `json:"err_pct"`
}

// CalibRow is one experiment's calibration result.
type CalibRow struct {
	Experiment string      `json:"experiment"`
	MAPE       float64     `json:"mape_pct"`
	RankCorr   float64     `json:"rank_corr"`
	Pairs      []CalibPair `json:"pairs"`
}

// CalibrationReport compares the analytical twin against the simulator
// on every registry experiment.
type CalibrationReport struct {
	Rows []CalibRow
	// MAPE is the overall mean absolute percentage error across all
	// pairs; Pairs the total comparison-point count.
	MAPE  float64
	Pairs int
}

// memCellCache is the in-process cache Calibrate uses to dedupe cells
// shared between experiment grids (the speedup curves revisit the
// single-node cells, the what-if grids share baselines).
type memCellCache struct {
	mu sync.Mutex
	m  map[string]Result
}

func (c *memCellCache) Get(key []byte) (Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.m[string(key)]
	return r, ok
}

func (c *memCellCache) Put(key []byte, r Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[string(key)] = r
}

// Calibrate runs every registry experiment through both the analytical
// twin and the simulator and reports per-experiment MAPE and rank
// correlation. The output is a pure function of the workload
// configuration: cells are evaluated in catalog order, results
// collected by index, so the report is byte-identical at any worker
// count and with prefix sharing on or off.
func Calibrate(cfg Config) CalibrationReport {
	if cfg.Cache == nil {
		cfg.Cache = &memCellCache{m: make(map[string]Result)}
	}
	tp := NewPredictor(&cfg.Workloads)
	var rep CalibrationReport
	for _, e := range Experiments() {
		row := CalibRow{Experiment: e.Name}
		switch {
		case e.Name == "latency":
			row.Pairs = calibrateLatency(tp)
		case e.Name == "load":
			row.Pairs = calibrateLoad(tp, cfg)
		default:
			row.Pairs = calibrateCells(tp, cfg, e)
		}
		finishRow(&row)
		rep.Rows = append(rep.Rows, row)
	}
	var sum float64
	for _, r := range rep.Rows {
		for _, p := range r.Pairs {
			sum += abs(p.ErrPct)
			rep.Pairs++
		}
	}
	if rep.Pairs > 0 {
		rep.MAPE = sum / float64(rep.Pairs)
	}
	return rep
}

// calibrateLatency pairs the four microbenchmark scalars.
func calibrateLatency(tp *Predictor) []CalibPair {
	meas := Latency()
	pred := tp.PredictLatency()
	mk := func(label string, t, s sim.Time) CalibPair {
		return pair(label, usec(t), usec(s))
	}
	return []CalibPair{
		mk("du-small", pred.DUSmall, meas.DUSmall),
		mk("au-word", pred.AUWord, meas.AUWord),
		mk("send-overhead", pred.SendOverhead, meas.SendOverhead),
		mk("myrinet-like", pred.MyrinetLike, meas.MyrinetLike),
	}
}

// calibrateCells pairs every cell of an experiment grid.
func calibrateCells(tp *Predictor, cfg Config, e Experiment) []CalibPair {
	if e.Cells == nil {
		return nil
	}
	cells := e.Cells(cfg)
	results := cfg.runCells(cells)
	pairs := make([]CalibPair, 0, len(cells))
	for i, c := range cells {
		spec, err := c.Compile()
		if err != nil {
			panic("harness: invalid calibration cell: " + err.Error())
		}
		pred := tp.PredictSpec(spec)
		pairs = append(pairs, pair(spec.Label()+knobTag(c.Knobs), usec(pred), usec(results[i].Elapsed)))
	}
	return pairs
}

// calibrateLoad pairs every load cell's per-class mean sojourn.
func calibrateLoad(tp *Predictor, cfg Config) []CalibPair {
	cells := LoadCells(cfg)
	perCell := cfg.runLoadCells(cells)
	var pairs []CalibPair
	for i, c := range cells {
		pred, err := tp.PredictLoad(c)
		if err != nil {
			panic("harness: invalid load cell: " + err.Error())
		}
		for _, mr := range perCell[i] {
			var tw *TwinLoadRow
			for j := range pred {
				if pred[j].Class == mr.Class {
					tw = &pred[j]
					break
				}
			}
			if tw == nil || mr.Sojourn == nil || mr.Sojourn.Count() == 0 {
				continue
			}
			label := fmt.Sprintf("%s/%.2gx/%s", c.Config, c.Offered, mr.Class)
			pairs = append(pairs, pair(label, usec(tw.MeanSojourn), mr.Sojourn.Mean()/1e3))
		}
	}
	return pairs
}

// knobTag renders a deterministic suffix for non-default knobs so
// what-if grid cells (same app/variant/nodes) stay distinguishable.
func knobTag(k Knobs) string {
	var s string
	add := func(name string, v any) { s += fmt.Sprintf(" %s=%v", name, v) }
	if k.SyscallPerSend != nil {
		add("sys", *k.SyscallPerSend)
	}
	if k.InterruptPerMessage != nil {
		add("imsg", *k.InterruptPerMessage)
	}
	if k.InterruptPerPacket != nil {
		add("ipkt", *k.InterruptPerPacket)
	}
	if k.Combining != nil {
		add("comb", *k.Combining)
	}
	if k.OutFIFOBytes != nil {
		add("fifo", *k.OutFIFOBytes)
	}
	if k.FIFOThresholdBytes != nil {
		add("thresh", *k.FIFOThresholdBytes)
	}
	if k.FIFOLowWaterBytes != nil {
		add("low", *k.FIFOLowWaterBytes)
	}
	if k.DUQueueDepth != nil {
		add("duq", *k.DUQueueDepth)
	}
	return s
}

// pair builds one comparison point (values in microseconds).
func pair(label string, twinU, simU float64) CalibPair {
	p := CalibPair{Label: label, TwinU: round3(twinU), SimU: round3(simU)}
	if simU != 0 {
		p.ErrPct = round2((twinU - simU) / simU * 100)
	}
	return p
}

// finishRow computes the row's aggregate metrics.
func finishRow(row *CalibRow) {
	if len(row.Pairs) == 0 {
		row.RankCorr = 1
		return
	}
	var sum float64
	tw := make([]float64, len(row.Pairs))
	sm := make([]float64, len(row.Pairs))
	for i, p := range row.Pairs {
		sum += abs(p.ErrPct)
		tw[i] = p.TwinU
		sm[i] = p.SimU
	}
	row.MAPE = round2(sum / float64(len(row.Pairs)))
	row.RankCorr = round3(spearman(tw, sm))
}

// spearman is the rank correlation of two paired samples (average
// ranks for ties; 1 when either side is constant or the sample is
// trivial, since no ordering evidence contradicts the twin).
func spearman(a, b []float64) float64 {
	if len(a) < 2 {
		return 1
	}
	ra, rb := ranks(a), ranks(b)
	var ma, mb float64
	for i := range ra {
		ma += ra[i]
		mb += rb[i]
	}
	ma /= float64(len(ra))
	mb /= float64(len(rb))
	var cov, va, vb float64
	for i := range ra {
		da, db := ra[i]-ma, rb[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 1
	}
	return cov / (sqrt(va) * sqrt(vb))
}

// ranks assigns average ranks (1-based) with ties sharing their mean.
func ranks(v []float64) []float64 {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return v[idx[i]] < v[idx[j]] })
	out := make([]float64, len(v))
	for i := 0; i < len(idx); {
		j := i
		for j < len(idx) && v[idx[j]] == v[idx[i]] {
			j++
		}
		mean := (float64(i+1) + float64(j)) / 2
		for k := i; k < j; k++ {
			out[idx[k]] = mean
		}
		i = j
	}
	return out
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func sqrt(v float64) float64 {
	if v <= 0 {
		return 0
	}
	return math.Sqrt(v)
}

func usec(t sim.Time) float64 { return float64(t) / 1e3 }

func round3(v float64) float64 {
	if v < 0 {
		return -round3(-v)
	}
	return float64(int64(v*1000+0.5)) / 1000
}

func round2(v float64) float64 {
	if v < 0 {
		return -round2(-v)
	}
	return float64(int64(v*100+0.5)) / 100
}

// PrintCalibration renders the calibration report: the per-experiment
// summary table followed by the per-pair detail.
func PrintCalibration(w io.Writer, rep CalibrationReport) {
	header(w, "Twin calibration: analytical model vs simulator")
	fmt.Fprintf(w, "%-12s %6s %9s %9s\n", "Experiment", "Pairs", "MAPE", "RankCorr")
	for _, r := range rep.Rows {
		fmt.Fprintf(w, "%-12s %6d %8.2f%% %9.3f\n", r.Experiment, len(r.Pairs), r.MAPE, r.RankCorr)
	}
	fmt.Fprintf(w, "%-12s %6d %8.2f%%\n", "overall", rep.Pairs, round2(rep.MAPE))
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-12s %-40s %14s %14s %9s\n", "Experiment", "Cell", "Twin us", "Sim us", "Err")
	for _, r := range rep.Rows {
		for _, p := range r.Pairs {
			fmt.Fprintf(w, "%-12s %-40s %14.3f %14.3f %8.2f%%\n",
				r.Experiment, p.Label, p.TwinU, p.SimU, p.ErrPct)
		}
	}
}
