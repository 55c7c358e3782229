package harness

import (
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
		want := Table1(serial)
		got := Table1(par)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parallel Table1 diverged from serial:\ngot  %+v\nwant %+v", got, want)
		}
	})
	t.Run("figure3", func(t *testing.T) {
		want := Figure3(serial)
		got := Figure3(par)
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

// TestCancelStopsAtCellBoundary cancels a serial run as soon as the
// first cell reports: that cell keeps its result and every later cell —
// including the remaining branches of a shared prefix group — is left a
// zero value.
func TestCancelStopsAtCellBoundary(t *testing.T) {
	wl := QuickWorkloads()
	for _, tc := range []struct {
		name  string
		cells []CellSpec
	}{
		// Three machine sizes: no two cells share a warmup.
		{"cold", []CellSpec{{App: "radix-vmmc", Nodes: 2},
			{App: "radix-vmmc", Nodes: 3}, {App: "radix-vmmc", Nodes: 4}}},
		// One prefix group of three branches.
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

// TestRunCellsCacheProtocol pins the cache calls a serial run makes,
// which per-cell timing through a never-hitting cache relies on: a Get
// for every cell before the first Put, one Put per simulated cell in
// unit order, no Put for a hit, and neither call for a traced cell.
// Cells 0, 5 and 6 share a warmup but are not adjacent, so 5 and 6 Put
// straight after 0.
func TestRunCellsCacheProtocol(t *testing.T) {
	wl := QuickWorkloads()
	cells := []Spec{
		{App: RadixVMMC, Nodes: 2, Variant: VariantAU},
		traceSpec(),
		{App: OceanNX, Nodes: 2, Variant: VariantAU},
		{App: RadixVMMC, Nodes: 2, Variant: VariantDU},
		{App: OceanNX, Nodes: 2, Variant: VariantDU},
		{App: RadixVMMC, Nodes: 2, Variant: VariantAU, Knobs: Knobs{SyscallPerSend: bptr(true)}},
		{App: RadixVMMC, Nodes: 2, Variant: VariantAU, Knobs: Knobs{Combining: bptr(false)}},
	}
	c := &recordingCache{index: map[string]int{}, hits: map[string]Result{}}
	for i, s := range cells {
		key, err := s.canonical(&wl)
		if err != nil {
			t.Fatal(err)
		}
		c.index[string(key)] = i
	}
	hit := Result{Elapsed: 42}
	key, _ := cells[2].canonical(&wl)
	c.hits[string(key)] = hit

	got := RunCells(nil, cells, &wl, CellRunOpts{Workers: 1, Cache: c})
	want := []string{"get 0", "get 2", "get 3", "get 4", "get 5", "get 6",
		"put 0", "put 5", "put 6", "put 3", "put 4"}
	if !reflect.DeepEqual(c.log, want) {
		t.Errorf("cache calls %q, want %q", c.log, want)
	}
	if got[2] != hit {
		t.Errorf("hit cell 2 = %+v, want the cached %+v", got[2], hit)
	}
	if got[1].Trace == nil {
		t.Error("traced cell 1 did not run")
	}
	for _, i := range []int{0, 3, 4, 5, 6} {
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
