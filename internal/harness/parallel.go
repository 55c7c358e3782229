package harness

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
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
// app cells and load cells both run on it — and this file is the
// concurrency allowlist, so the pool lives here.
//
// A panicking fn stops the pool handing out indexes. Once the workers
// have drained, forEachCell re-panics on the caller's goroutine with
// the lowest panicking index, its panic value and the worker's stack,
// so a caller can recover from a failed cell.
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
	var next atomic.Int64
	next.Store(-1)
	var (
		failed atomic.Bool
		mu     sync.Mutex
		first  = -1
		msg    string
	)
	run := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				failed.Store(true)
				mu.Lock()
				if first < 0 || i < first {
					first, msg = i, fmt.Sprintf("harness: cell %d: %v\n\nworker stack:\n%s", i, r, debug.Stack())
				}
				mu.Unlock()
			}
		}()
		fn(i)
	}
	work := func() {
		for ctx.Err() == nil && !failed.Load() {
			i := next.Add(1)
			if i >= int64(n) {
				return
			}
			run(int(i))
		}
	}
	if workers <= 1 {
		work()
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for k := 0; k < workers; k++ {
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	if first >= 0 {
		panic(msg)
	}
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
	// Workers is the simulation worker-pool width (0 = GOMAXPROCS).
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
// executor, and runs in three steps:
//
//  1. every cell is looked up in opts.Cache, all Gets before any cell
//     simulates (hits call OnDone straight away);
//  2. the misses run through Run on the worker pool (forEachCell);
//  3. each simulated result is Put into the cache and then passed to
//     OnDone.
//
// Each cell builds its own sim.Engine and machine and shares no mutable
// state with any other, and results are written by cell index, so the
// output is byte-identical to a serial run regardless of worker count
// or completion order. At one worker, Puts arrive in cell order.
//
// Cancelling ctx stops the run at the next cell boundary: cells already
// simulated keep their results, unstarted cells are left as zero
// values, and the caller distinguishes the two via ctx.Err(). A nil ctx
// runs to completion.
func RunCells(ctx context.Context, cells []Spec, w *Workloads, opts CellRunOpts) []Result {
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
	forEachCell(ctx, len(todo), opts.Workers, func(k int) {
		i := todo[k]
		r := Run(cells[i], w)
		results[i] = r
		if keys[i] != nil {
			opts.Cache.Put(keys[i], r)
		}
		if opts.OnDone != nil {
			opts.OnDone(i, r)
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
// bad variant/protocol, non-positive nodes, knobs out of range), before
// anything runs.
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
// cache: a cached Result carries no recorder, and the observability
// contract is that every traced cell really ran.
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
