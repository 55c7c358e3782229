package harness

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// forEachCell runs fn(i) for every index in [0, n) on a pool of
// workers. workers <= 0 selects GOMAXPROCS; a single worker degenerates
// to the plain serial loop (no goroutines), which doubles as the
// baseline for the parallel-equals-serial determinism tests. Cancelling
// ctx stops picking up new indexes at the next boundary; a nil ctx runs
// to completion. Callers write results by index, so output is
// deterministic at any width. This is the harness's only worker pool —
// app cells, prefix groups and load cells all run on it — and this
// file is the concurrency allowlist, so the pool lives here.
func forEachCell(ctx context.Context, n, workers int, fn func(i int)) {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			fn(i)
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	wg.Add(workers)
	for k := 0; k < workers; k++ {
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := next.Add(1)
				if i >= int64(n) {
					return
				}
				fn(int(i))
			}
		}()
	}
	wg.Wait()
}

// CellCache is a content-addressed store of cell results, keyed by the
// canonical cell encoding (CellSpec.Canonical). The simulator is
// byte-deterministic, so a cell's Result is a pure function of its
// canonical encoding; implementations (internal/resultcache) may hash
// the key and keep entries anywhere. Get and Put must be safe for
// concurrent use: the worker pool calls them from multiple goroutines.
type CellCache interface {
	Get(canonical []byte) (Result, bool)
	Put(canonical []byte, r Result)
}

// CellRunOpts configures RunCells and RunCellSpecs.
type CellRunOpts struct {
	// Workers is the simulation worker-pool width (0 = GOMAXPROCS). It
	// also bounds how many cells one prefix group takes (see planUnits).
	Workers int
	// Cache, when non-nil, is consulted before simulating each cell and
	// populated after; hits skip the simulator entirely. Traced cells
	// bypass the cache (a Result's recorder is not cacheable).
	Cache CellCache
	// OnDone is invoked once per completed cell (hit or simulated),
	// concurrently from pool goroutines and in completion order, so
	// callers that stream results must do their own locking and
	// ordering.
	OnDone func(i int, r Result)
}

// RunCells executes independent simulation cells and returns their
// results indexed exactly like cells. It is the harness's one cell
// executor, and runs in four steps:
//
//  1. every cell is looked up in opts.Cache, all Gets before any cell
//     simulates (hits call OnDone straight away);
//  2. the misses are planned into units (see planUnits): cells that
//     share a warmup prefix form groups, capped so the units still
//     spread over the workers, and every other cell is a singleton;
//  3. the units run on the worker pool (forEachCell), a group as one
//     warmup plus a forked branch per cell (see prefix.go);
//  4. each simulated result is Put into the cache and then passed to
//     OnDone.
//
// Each unit builds its own sim.Engine and machine and shares no mutable
// state with any other, a forked branch is byte-identical to a cold
// run, and results are written by cell index, so the output is
// byte-identical to a serial cold run regardless of worker count,
// grouping or completion order. At one worker, Puts arrive in unit
// order: cell order, except that a group's later branches follow its
// first cell.
//
// Cancelling ctx stops the run at the next cell boundary — including
// between the branches of a prefix group: cells already simulated keep
// their results, unstarted cells are left as zero values, and the
// caller distinguishes the two via ctx.Err(). A nil ctx runs to
// completion.
func RunCells(ctx context.Context, cells []Spec, w *Workloads, opts CellRunOpts) []Result {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	results := make([]Result, len(cells))
	keys := make([][]byte, len(cells))
	todo := make([]int, 0, len(cells))
	for i, s := range cells {
		if opts.Cache != nil && s.Trace == nil {
			if key, err := s.canonical(w); err == nil {
				if r, ok := opts.Cache.Get(key); ok {
					results[i] = r
					if opts.OnDone != nil {
						opts.OnDone(i, r)
					}
					continue
				}
				keys[i] = key
			}
		}
		todo = append(todo, i)
	}
	done := func(i int, r Result) {
		results[i] = r
		if keys[i] != nil {
			opts.Cache.Put(keys[i], r)
		}
		if opts.OnDone != nil {
			opts.OnDone(i, r)
		}
	}
	units := planUnits(cells, todo, workers)
	forEachCell(ctx, len(units), workers, func(u int) {
		if idxs := units[u]; len(idxs) > 1 {
			runSharedGroup(ctx, idxs, cells, w, done)
		} else {
			done(idxs[0], Run(cells[idxs[0]], w))
		}
	})
	return results
}

// compileCells resolves a grid of serializable cell specs.
func compileCells(cells []CellSpec) ([]Spec, error) {
	specs := make([]Spec, len(cells))
	for i, c := range cells {
		s, err := c.Compile()
		if err != nil {
			return nil, err
		}
		specs[i] = s
	}
	return specs, nil
}

// RunCellSpecs compiles serializable cell specs and executes them with
// RunCells. An error is returned only for invalid specs (unknown app,
// bad variant/protocol, non-positive nodes), before anything runs.
func RunCellSpecs(ctx context.Context, cells []CellSpec, w *Workloads, opts CellRunOpts) ([]Result, error) {
	specs, err := compileCells(cells)
	if err != nil {
		return nil, err
	}
	return RunCells(ctx, specs, w, opts), nil
}

// runCells runs a grid of serializable cell specs under the sweep's
// configured worker count, cache and context, attaching trace
// recorders and draining them to the sink in cell order, so trace
// output is independent of the worker count. Traced cells bypass the
// cache and prefix sharing: a cached Result carries no recorder, and
// the observability contract is that every traced cell really ran.
func (cfg *Config) runCells(cells []CellSpec) []Result {
	specs, err := compileCells(cells)
	if err != nil {
		panic("harness: invalid experiment cell: " + err.Error())
	}
	for i := range specs {
		specs[i].Trace = cfg.Trace
	}
	results := RunCells(cfg.Ctx, specs, &cfg.Workloads, CellRunOpts{
		Workers: cfg.Workers,
		Cache:   cfg.Cache,
	})
	if cfg.TraceSink != nil {
		for i := range results {
			if results[i].Trace != nil {
				cfg.TraceSink(specs[i], results[i].Trace)
			}
		}
	}
	return results
}
