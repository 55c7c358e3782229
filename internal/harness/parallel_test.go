package harness

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
)

// TestParallelMatchesSerial is the paper-fidelity invariant of the
// worker pool: a grid run on 4 workers must produce exactly the rows a
// serial run produces. Each cell builds its own engine and machine, and
// results are collected by cell index, so worker count and completion
// order must be unobservable.
func TestParallelMatchesSerial(t *testing.T) {
	serial := DefaultExperimentConfig()
	serial.Nodes = 4
	serial.Workers = 1
	serial.Workloads = QuickWorkloads()

	par := serial
	par.Workers = 4

	t.Run("table1", func(t *testing.T) {
		want := runGrid(serial, table1)
		got := runGrid(par, table1)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parallel Table1 diverged from serial:\ngot  %+v\nwant %+v", got, want)
		}
	})
	t.Run("figure3", func(t *testing.T) {
		want := runGrid(serial, figure3)
		got := runGrid(par, figure3)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parallel Figure3 diverged from serial:\ngot  %+v\nwant %+v", got, want)
		}
	})
}

// TestRunCellsOrdering checks the result slice lines up with the cell
// slice even when workers race, using cells cheap enough to interleave.
func TestRunCellsOrdering(t *testing.T) {
	wl := QuickWorkloads()
	apps := []App{RadixVMMC, OceanNX, RadixVMMC, OceanNX, RadixVMMC, OceanNX}
	var cells []Spec
	for i, app := range apps {
		cells = append(cells, Spec{App: app, Nodes: 2 + 2*(i%2), Variant: DefaultVariant(app)})
	}
	want := RunCells(nil, cells, &wl, CellRunOpts{Workers: 1})
	got := RunCells(nil, cells, &wl, CellRunOpts{Workers: 3})
	for i := range cells {
		if got[i].Elapsed != want[i].Elapsed || got[i].Counters != want[i].Counters {
			t.Errorf("cell %d (%v on %d nodes): parallel result diverged", i, cells[i].App, cells[i].Nodes)
		}
	}
}

// TestForkDeterminismExperiments pins every registered experiment's
// rendered JSON rows at 3 and 8 workers against a serial run: worker
// count and completion order must not show in the output. The name
// dates from when cells forked from a shared warmup; every cell now
// runs cold, and the test keeps its name so its history stays
// comparable.
func TestForkDeterminismExperiments(t *testing.T) {
	for _, e := range Experiments() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			cfg := Config{Nodes: 4, Workloads: QuickWorkloads()}
			var want []byte
			for _, workers := range []int{1, 3, 8} {
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
					t.Fatalf("%s: output at %d workers diverges from serial:\nwant %s\ngot  %s",
						e.Name, workers, want, buf.Bytes())
				}
			}
		})
	}
}

// sweepCells is a representative what-if sweep: each app with a warmup
// phase under several knobs, plus an NX cell to cover a mixed grid.
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
// and 8 workers against a serial loop of Run. Like
// TestForkDeterminismExperiments it keeps the name it had when cells
// forked from a shared warmup.
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
				t.Fatalf("%d workers: cell %d (%+v) diverges from Run:\nwant %+v\ngot  %+v",
					workers, i, cells[i], want[i], got[i])
			}
		}
	}
}

// knobSweep is a what-if sweep in the style of the paper's §4.5
// studies: one app and size, n FIFO-capacity variants.
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

// TestCancelStopsAtCellBoundary cancels a serial run as soon as the
// first cell reports: that cell keeps its result and every later cell
// is left a zero value.
func TestCancelStopsAtCellBoundary(t *testing.T) {
	wl := QuickWorkloads()
	for _, tc := range []struct {
		name  string
		cells []CellSpec
	}{
		// Three machine sizes.
		{"cold", []CellSpec{{App: "radix-vmmc", Nodes: 2},
			{App: "radix-vmmc", Nodes: 3}, {App: "radix-vmmc", Nodes: 4}}},
		// One app and size under three knob settings: cells that once
		// shared a warmup, each now run cold.
		{"shared", knobSweep("radix-vmmc", 2, 3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first, err := RunCellSpecs(nil, tc.cells[:1], &wl, CellRunOpts{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			got, err := RunCellSpecs(ctx, tc.cells, &wl, CellRunOpts{Workers: 1,
				OnDone: func(int, Result) { cancel() }})
			if err != nil {
				t.Fatal(err)
			}
			if got[0] != first[0] {
				t.Errorf("finished cell 0 lost its result: got %+v, want %+v", got[0], first[0])
			}
			for i := 1; i < len(got); i++ {
				if got[i] != (Result{}) {
					t.Errorf("cell %d ran after cancellation: %+v", i, got[i])
				}
			}
		})
	}
	t.Run("load", func(t *testing.T) {
		cfg := Config{Nodes: 4, Workloads: QuickWorkloads(), Workers: 1,
			Ctx: &cancelAfterFirst{Context: context.Background()}}
		want, err := RunLoadCell(LoadCells(cfg)[0])
		if err != nil {
			t.Fatal(err)
		}
		if got := LoadSweep(cfg); len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("cancelled load sweep returned %d rows, want the first cell's %d", len(got), len(want))
		}
	})
}

// cancelAfterFirst is a context that reports cancellation from the
// second Err call on. The pool checks Err once before starting each
// cell, so exactly the first cell of a serial run starts.
type cancelAfterFirst struct {
	context.Context
	calls atomic.Int32
}

func (c *cancelAfterFirst) Err() error {
	if c.calls.Add(1) > 1 {
		return context.Canceled
	}
	return nil
}

// recordingCache is a CellCache that logs every call by cell index and
// hits only on the entries it was seeded with.
type recordingCache struct {
	index map[string]int // canonical key -> cell index
	hits  map[string]Result
	log   []string
}

func (c *recordingCache) Get(key []byte) (Result, bool) {
	c.log = append(c.log, fmt.Sprintf("get %d", c.index[string(key)]))
	r, ok := c.hits[string(key)]
	return r, ok
}

func (c *recordingCache) Put(key []byte, r Result) {
	c.log = append(c.log, fmt.Sprintf("put %d", c.index[string(key)]))
}

// TestRunCellsCacheProtocol pins the calls a serial run makes, which
// perfbench's never-hitting probeCache times cells by (the gap before
// each Put is that cell's simulation): a Get for every untraced cell,
// all before any cell simulates, with a hit's OnDone straight after its
// Get; then exactly one Put per miss, in cell order, each before that
// cell's OnDone. A hit gets no Put, and a traced cell neither call.
func TestRunCellsCacheProtocol(t *testing.T) {
	wl := QuickWorkloads()
	cells := []Spec{
		{App: RadixVMMC, Nodes: 2, Variant: VariantAU},
		traceSpec(),
		{App: OceanNX, Nodes: 2, Variant: VariantAU},
		{App: RadixVMMC, Nodes: 2, Variant: VariantDU},
		{App: OceanNX, Nodes: 2, Variant: VariantDU},
		{App: RadixVMMC, Nodes: 2, Variant: VariantAU, Knobs: Knobs{SyscallPerSend: bptr(true)}},
	}
	c := &recordingCache{index: map[string]int{}, hits: map[string]Result{}}
	for i, s := range cells {
		if s.Trace != nil {
			continue
		}
		key, err := s.canonical(&wl)
		if err != nil {
			t.Fatal(err)
		}
		c.index[string(key)] = i
	}
	hit := Result{Elapsed: 42}
	key, _ := cells[2].canonical(&wl)
	c.hits[string(key)] = hit

	got := RunCells(nil, cells, &wl, CellRunOpts{Workers: 1, Cache: c,
		OnDone: func(i int, _ Result) { c.log = append(c.log, fmt.Sprintf("done %d", i)) }})
	want := []string{"get 0", "get 2", "done 2", "get 3", "get 4", "get 5",
		"put 0", "done 0", "done 1", "put 3", "done 3", "put 4", "done 4", "put 5", "done 5"}
	if !reflect.DeepEqual(c.log, want) {
		t.Errorf("cache calls %q, want %q", c.log, want)
	}
	if got[2] != hit {
		t.Errorf("hit cell 2 = %+v, want the cached %+v", got[2], hit)
	}
	if got[1].Trace == nil {
		t.Error("traced cell 1 did not run")
	}
	for _, i := range []int{0, 3, 4, 5} {
		if got[i].Elapsed == 0 {
			t.Errorf("missed cell %d was not simulated", i)
		}
	}
}

// BenchmarkParallelGrid measures wall-clock for a representative
// experiment grid at several worker counts. On a multicore machine the
// Workers=4 case should approach a 4x speedup over Workers=1 (cells are
// fully independent); with GOMAXPROCS=1 the three track each other.
func BenchmarkParallelGrid(b *testing.B) {
	wl := QuickWorkloads()
	var cells []Spec
	for _, app := range []App{BarnesSVM, OceanSVM, RadixSVM, RadixVMMC, BarnesNX, OceanNX, DFSSockets, RenderSockets} {
		for _, n := range []int{2, 4} {
			cells = append(cells, Spec{App: app, Nodes: n, Variant: DefaultVariant(app)})
		}
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "serial", 2: "workers2", 4: "workers4"}[workers], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				RunCells(nil, cells, &wl, CellRunOpts{Workers: workers})
			}
		})
	}
}
