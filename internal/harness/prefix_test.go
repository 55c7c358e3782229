package harness

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"shrimp/internal/apps/ocean"
	"shrimp/internal/checkpoint"
	"shrimp/internal/trace"
)

// TestForkDeterminismExperiments pins the tentpole invariant on every
// registered experiment: a branch forked from a shared warmup
// checkpoint is byte-identical to a cold run. The rendered JSON rows
// at 1 and 3 workers, where prefix groups form, must match a run with
// at least one worker per cell, where every unit is a cold singleton.
func TestForkDeterminismExperiments(t *testing.T) {
	for _, e := range Experiments() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			cfg := Config{Nodes: 4, Workloads: QuickWorkloads()}
			cold := 1
			if e.Cells != nil {
				cold = max(cold, len(e.Cells(cfg)))
			}
			var want []byte
			for _, workers := range []int{cold, 1, 3} {
				cfg.Workers = workers
				var buf bytes.Buffer
				if err := EmitJSON(&buf, e.Name, e.Run(cfg)); err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = buf.Bytes()
					continue
				}
				if !bytes.Equal(want, buf.Bytes()) {
					t.Fatalf("%s: output at %d workers diverges from cold:\nwant %s\ngot  %s",
						e.Name, workers, want, buf.Bytes())
				}
			}
		})
	}
}

// sweepCells is a representative what-if sweep: each checkpointable
// app under several post-warmup knobs (one shared warmup per app), plus
// a non-shareable cell to cover the mixed-grid path.
func sweepCells() []CellSpec {
	var cells []CellSpec
	for _, app := range []string{"radix-svm", "ocean-svm", "barnes-svm", "radix-vmmc"} {
		cells = append(cells,
			CellSpec{App: app, Nodes: 4},
			CellSpec{App: app, Nodes: 4, Knobs: Knobs{SyscallPerSend: bptr(true)}},
			CellSpec{App: app, Nodes: 4, Knobs: Knobs{InterruptPerMessage: bptr(true)}},
			CellSpec{App: app, Nodes: 4, Knobs: Knobs{Combining: bptr(false)}},
		)
	}
	return append(cells, CellSpec{App: "ocean-nx", Nodes: 4})
}

// TestForkDeterminismSweep pins Result equality (every field, not just
// the rendered rows) on a representative knob sweep: RunCellSpecs at 1
// worker (every group shared) and at 8 (groups capped at three cells)
// against a serial loop of cold Runs.
func TestForkDeterminismSweep(t *testing.T) {
	wl := QuickWorkloads()
	cells := sweepCells()
	want := make([]Result, len(cells))
	for i, c := range cells {
		spec, err := c.Compile()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = Run(spec, &wl)
	}
	for _, workers := range []int{1, 8} {
		got, err := RunCellSpecs(context.Background(), cells, &wl, CellRunOpts{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%d workers: cell %d (%+v) diverges from cold:\nwant %+v\ngot  %+v",
					workers, i, cells[i], want[i], got[i])
			}
		}
	}
}

// TestPrefixKeyEligibility pins which cells may share a warmup:
// checkpointable apps without tracing group by app, size and resolved
// protocol/mechanism; everything else runs cold.
func TestPrefixKeyEligibility(t *testing.T) {
	du := VariantDU
	if k := (Spec{App: RadixSVM, Nodes: 4, Variant: VariantAU}).prefixKey(); k == "" {
		t.Error("Radix-SVM should be shareable")
	}
	au := (Spec{App: RadixSVM, Nodes: 4, Variant: VariantAU}).prefixKey()
	if k := (Spec{App: RadixSVM, Nodes: 4, Variant: du}).prefixKey(); k == au {
		t.Error("different protocols must not share a warmup")
	}
	if k := (Spec{App: BarnesNX, Nodes: 4}).prefixKey(); k != "" {
		t.Errorf("Barnes-NX is not checkpointable, got key %q", k)
	}
}

// TestPlanUnits pins how the planner turns a grid into pool units:
// whole groups at one worker, cold singletons once every cell has a
// worker, groups capped at ceil(cells/workers), units ordered by their
// first cell, and traced or NX and sockets cells always alone.
func TestPlanUnits(t *testing.T) {
	a := Spec{App: RadixVMMC, Nodes: 2, Variant: VariantAU}
	b := Spec{App: RadixVMMC, Nodes: 4, Variant: VariantAU}
	nx := Spec{App: OceanNX, Nodes: 2, Variant: VariantAU}
	traced := a
	traced.Trace = &trace.Options{}
	mixed := []Spec{a, b, a, nx, b, a}
	for _, tc := range []struct {
		name    string
		cells   []Spec
		todo    []int // nil: every cell
		workers int
		want    [][]int
	}{
		{"one worker shares whole groups", mixed, nil, 1, [][]int{{0, 2, 5}, {1, 4}, {3}}},
		{"a worker per cell runs cold", mixed, nil, 6, [][]int{{0}, {1}, {2}, {3}, {4}, {5}}},
		{"spare workers run cold", mixed, nil, 10, [][]int{{0}, {1}, {2}, {3}, {4}, {5}}},
		{"cache hits leave the grid", mixed, []int{1, 2, 3, 5}, 1, [][]int{{1}, {2, 5}, {3}}},
		{"group of five capped at four", []Spec{a, a, nx, a, a, nx, a, nx}, nil, 2,
			[][]int{{0, 1, 3, 4}, {2}, {5}, {6}, {7}}},
		{"traced and NX alone", []Spec{a, traced, nx, nx}, nil, 1,
			[][]int{{0}, {1}, {2}, {3}}},
	} {
		todo := tc.todo
		if todo == nil {
			for i := range tc.cells {
				todo = append(todo, i)
			}
		}
		if got := planUnits(tc.cells, todo, tc.workers); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: units %v, want %v", tc.name, got, tc.want)
		}
	}
}

// knobSweep is a what-if sweep in the style of the paper's §4.5
// studies: one app and size, n FIFO-capacity variants. Every cell
// shares one warmup prefix, so sharing runs the warmup once instead
// of n times.
func knobSweep(app string, nodes, n int) []CellSpec {
	cells := make([]CellSpec, 0, n)
	for i := 0; i < n; i++ {
		fifo := 4096 * (i + 1)
		cells = append(cells, CellSpec{App: app, Nodes: nodes, Knobs: Knobs{
			OutFIFOBytes:       iptr(fifo),
			FIFOThresholdBytes: iptr(fifo * 3 / 4),
			FIFOLowWaterBytes:  iptr(fifo / 4),
		}})
	}
	return cells
}

// BenchmarkKnobSweep measures a 24-cell single-app knob sweep cold (a
// loop of Run) and shared (RunCellSpecs at one worker, one warmup) —
// the headline speedup of prefix sharing. The workload is warmup-heavy
// on purpose: a 16-node machine whose construction and init phase
// (cold page faults on every grid page) cost more than the single
// relaxation iteration that follows, which is exactly the regime a
// short what-if sweep over NIC knobs lives in.
func BenchmarkKnobSweep(b *testing.B) {
	wl := QuickWorkloads()
	wl.OceanSVM = ocean.Params{N: 48, Iters: 1, CellCost: wl.OceanSVM.CellCost}
	cells := knobSweep("ocean-svm", 16, 24)
	specs, err := compileCells(cells)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, s := range specs {
				Run(s, &wl)
			}
		}
	})
	b.Run("shared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			RunCells(context.Background(), specs, &wl, CellRunOpts{Workers: 1})
		}
	})
}

// BenchmarkSnapshotTake measures the cost of capturing a full
// checkpoint of a warmed-up 4-node Radix-SVM machine.
func BenchmarkSnapshotTake(b *testing.B) {
	wl := QuickWorkloads()
	cr := start(Spec{App: RadixSVM, Nodes: 4, Variant: VariantAU}, &wl)
	defer cr.m.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := checkpoint.Take(cr.m, cr.sys, cr.shm)
		if err != nil {
			b.Fatal(err)
		}
		st.Detach()
	}
}

// BenchmarkFork measures the cost of rewinding to a checkpoint after a
// full branch has run — the per-branch overhead of prefix sharing,
// O(pages the branch dirtied).
func BenchmarkFork(b *testing.B) {
	wl := QuickWorkloads()
	spec := Spec{App: RadixSVM, Nodes: 4, Variant: VariantAU}
	cr := start(spec, &wl)
	defer cr.m.Close()
	st, err := checkpoint.Take(cr.m, cr.sys, cr.shm)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cr.applyKnobs(spec)
		cr.finish() // dirty the state like a real branch (untimed)
		b.StartTimer()
		if err := st.Restore(); err != nil {
			b.Fatal(err)
		}
	}
}
