package harness

import (
	"bytes"
	"testing"

	"shrimp/internal/sim"
	"shrimp/internal/twin"
)

// within reports whether got is within frac of want (relative error).
func within(got, want sim.Time, frac float64) bool {
	g, w := float64(got), float64(want)
	if w == 0 {
		return g == 0
	}
	d := (g - w) / w
	if d < 0 {
		d = -d
	}
	return d <= frac
}

// TestTwinLatencyOracle pins the twin's latency scalars against the
// microbenchmark driver, which measures them on the real DES. The
// closed form shares the mesh/NIC cost terms, so the agreement is
// tight.
func TestTwinLatencyOracle(t *testing.T) {
	wl := QuickWorkloads()
	tp := NewPredictor(&wl)
	pred := tp.PredictLatency()
	meas := Latency()
	cases := []struct {
		name       string
		pred, meas sim.Time
	}{
		{"du-small", pred.DUSmall, meas.DUSmall},
		{"au-word", pred.AUWord, meas.AUWord},
		{"send-overhead", pred.SendOverhead, meas.SendOverhead},
		{"myrinet-like", pred.MyrinetLike, meas.MyrinetLike},
	}
	for _, c := range cases {
		// The AU snoop path is the coarsest closed form; the DU-based
		// scalars agree tightly.
		tol := 0.10
		if c.name == "au-word" {
			tol = 0.20
		}
		if !within(c.pred, c.meas, tol) {
			t.Errorf("%s: twin %v, sim %v (>%.0f%% apart)", c.name, c.pred, c.meas, tol*100)
		}
	}
}

// TestTwinTwoNodeCells checks PredictSpec against full DES runs on
// small uncontended cells, where the service-time terms dominate and
// the closed form should land close.
func TestTwinTwoNodeCells(t *testing.T) {
	wl := QuickWorkloads()
	tp := NewPredictor(&wl)
	specs := []Spec{
		{App: RadixVMMC, Nodes: 2, Variant: VariantAU},
		{App: BarnesNX, Nodes: 2, Variant: VariantDU},
		{App: OceanNX, Nodes: 2, Variant: VariantAU},
	}
	for _, spec := range specs {
		pred := tp.PredictSpec(spec)
		meas := Run(spec, &wl).Elapsed
		if !within(pred, meas, 0.35) {
			t.Errorf("%s: twin %v, sim %v (>35%% apart)", spec.Label(), pred, meas)
		}
	}
}

// TestTwinRenderUsesCellKnobs checks that Render's serial term, which
// ships the volume through the DU engine, is priced on the cell's own
// machine: a 2-deep DU queue pipelines the engine, so serial falls.
func TestTwinRenderUsesCellKnobs(t *testing.T) {
	wl := QuickWorkloads()
	tp := NewPredictor(&wl)
	serial := func(knobs Knobs) sim.Time {
		spec, err := CellSpec{App: RenderSockets.String(), Nodes: 8, Knobs: knobs}.Compile()
		if err != nil {
			t.Fatal(err)
		}
		return tp.profile(spec, twin.New(spec.machineConfig())).serial
	}
	d1, d2 := serial(Knobs{}), serial(Knobs{DUQueueDepth: iptr(2)})
	if d2 >= d1 {
		t.Errorf("Render serial at du_queue_depth 2 = %v, want below depth 1's %v", d2, d1)
	}
}

// TestTwinLoadOracle checks the open-loop tandem-queue model against
// the DES traffic driver: every class's sojourn within a factor of the
// measured mean, and raising the offered rate must raise the predicted
// sojourn for every class, mirroring the driver. (Even at 0.5x offered
// a serial stream whose round trip exceeds its interarrival gap
// backlogs — the twin reports that as utilization >= 1, matching the
// driver's multi-millisecond sojourns.)
func TestTwinLoadOracle(t *testing.T) {
	wl := QuickWorkloads()
	low := LoadCell{Config: "dfs/du", Nodes: 16, Offered: 0.5, Params: wl.Load}
	rows, err := low.Predict()
	if err != nil {
		t.Fatal(err)
	}
	meas, err := RunLoadCell(low)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no predicted classes")
	}
	for _, r := range rows {
		if r.Utilization <= 0 {
			t.Errorf("%s at 0.5x: utilization %.3f, want > 0", r.Class, r.Utilization)
		}
		var m *LoadRow
		for i := range meas {
			if meas[i].Class == r.Class {
				m = &meas[i]
			}
		}
		if m == nil {
			t.Fatalf("class %s missing from DES rows", r.Class)
		}
		simMean := sim.Time(m.Sojourn.Mean())
		if !within(r.MeanSojourn, simMean, 1.0) {
			t.Errorf("%s: twin sojourn %v, sim %v (>2x apart)", r.Class, r.MeanSojourn, simMean)
		}
	}
	// Overload must strictly increase every class's predicted sojourn.
	high := low
	high.Offered = 2.0
	hrows, err := high.Predict()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if hrows[i].MeanSojourn <= r.MeanSojourn {
			t.Errorf("%s: sojourn did not grow with offered load (%v -> %v)",
				r.Class, r.MeanSojourn, hrows[i].MeanSojourn)
		}
	}
}

// TestTwinGuidedSearchAgreement is the acceptance check for the
// coarse-to-fine search: on registry what-if grids the twin-guided
// search must find the same best cell as an exhaustive DES sweep while
// confirming at most a quarter of the cells.
func TestTwinGuidedSearchAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full DES sweeps")
	}
	cfg := DefaultExperimentConfig()
	cfg.Workloads = QuickWorkloads()
	for _, name := range []string{"table4", "perpacket"} {
		e, ok := FindExperiment(name)
		if !ok {
			t.Fatalf("experiment %q missing from registry", name)
		}
		cells := e.Cells(cfg)
		res, err := TwinGuidedSearch(cfg, cells, 0)
		if err != nil {
			t.Fatal(err)
		}
		if 4*res.Confirmed > res.Scanned+3 {
			t.Errorf("%s: confirmed %d of %d cells, want at most a quarter",
				name, res.Confirmed, res.Scanned)
		}
		// Exhaustive DES best: lowest elapsed, ties to the lowest index.
		exhaustive := cfg.runCells(cells)
		best := 0
		for i, r := range exhaustive {
			if r.Elapsed < exhaustive[best].Elapsed {
				best = i
			}
		}
		if res.Ranked[0].Index != best {
			t.Errorf("%s: guided search best is cell %d, exhaustive DES best is cell %d",
				name, res.Ranked[0].Index, best)
		}
		if res.BestSim != exhaustive[best].Elapsed {
			t.Errorf("%s: guided best sim %v, exhaustive %v",
				name, res.BestSim, exhaustive[best].Elapsed)
		}
	}
}

// TestSearchGridShape pins the what-if grid the guided search scans:
// the full cross product, every cell compilable, labels unique.
func TestSearchGridShape(t *testing.T) {
	cells := SearchGrid(RadixVMMC, VariantAU, 16)
	if len(cells) != 72 {
		t.Fatalf("grid has %d cells, want 72", len(cells))
	}
	seen := map[string]bool{}
	for i, c := range cells {
		spec, err := c.Compile()
		if err != nil {
			t.Fatalf("cell %d does not compile: %v", i, err)
		}
		label := spec.Label() + knobTag(c.Knobs)
		if seen[label] {
			t.Fatalf("duplicate cell label %q", label)
		}
		seen[label] = true
	}
}

// BenchmarkTwinGrid times the analytical twin over the full 72-cell
// guided-search grid — the workload the coarse pass of the search
// runs. Compare against BenchmarkSimGridCell (one DES cell of the same
// grid) for the twin-vs-DES speedup; CHANGES.md records the ratio.
func BenchmarkTwinGrid(b *testing.B) {
	wl := QuickWorkloads()
	tp := NewPredictor(&wl)
	cells := SearchGrid(RadixVMMC, VariantAU, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cells {
			if _, err := tp.PredictCell(c); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSimGridCell times the simulator on one cell of the same
// grid the twin scans in BenchmarkTwinGrid.
func BenchmarkSimGridCell(b *testing.B) {
	wl := QuickWorkloads()
	spec := Spec{App: RadixVMMC, Nodes: 16, Variant: VariantAU}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if Run(spec, &wl).Elapsed <= 0 {
			b.Fatal("bad cell result")
		}
	}
}

// TestTwinRowsRendering smoke-tests the -twin rendering paths for a
// cells experiment, the latency scalars and the load family.
func TestTwinRowsRendering(t *testing.T) {
	cfg := DefaultExperimentConfig()
	cfg.Workloads = QuickWorkloads()
	cfg.Nodes = 4
	for _, name := range []string{"latency", "duqueue", "load"} {
		e, ok := FindExperiment(name)
		if !ok {
			t.Fatalf("experiment %q missing", name)
		}
		rows, err := TwinRows(cfg, e)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var buf bytes.Buffer
		PrintTwinRows(&buf, e, rows)
		if buf.Len() == 0 {
			t.Fatalf("%s: empty twin report", name)
		}
	}
}
