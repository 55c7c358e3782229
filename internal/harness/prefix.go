package harness

import (
	"context"
	"fmt"

	"shrimp/internal/checkpoint"
)

// Sweep prefix sharing. Cells of a what-if sweep differ only in knobs
// that act after initialization and the first barrier, so their warmup
// prefixes are identical simulations. The planner groups cells by a
// prefix key — the canonical encoding of every spec field that affects
// the warmup (app, nodes, resolved protocol or mechanism; the workload
// is fixed per sweep) — runs each shared prefix once, checkpoints at
// the phase boundary, and forks one branch per cell by restoring the
// checkpoint and applying that cell's knobs. Because cold runs follow
// the exact same warmup-then-knobs sequence, a forked branch is
// byte-identical to a from-scratch run; sharing is invisible to golden
// checksums and the result cache.

// prefixKey returns the warmup-grouping key for a spec, or "" when the
// cell cannot share a prefix (an NX or sockets app, which has no
// warmup phase, or an attached tracer, whose recorder must observe the
// cell's own warmup).
func (s Spec) prefixKey() string {
	if s.Trace != nil {
		return ""
	}
	switch s.App {
	case BarnesSVM, OceanSVM, RadixSVM:
		return fmt.Sprintf("%s|%d|%s", s.App, s.Nodes, resolveProto(s))
	case RadixVMMC:
		return fmt.Sprintf("%s|%d|%s", s.App, s.Nodes, s.Variant)
	}
	return ""
}

// planUnits groups the cells to simulate (todo, in index order) into
// worker-pool units, ordered by their first cell. Shareable cells whose
// prefix keys coincide join one unit that runs its warmup once, up to
// ceil(len(todo)/workers) cells; the next cell of a full group opens a
// new unit. Every other cell is a singleton that runs cold. So one
// worker shares every warmup, workers >= len(todo) gives the cold
// all-singleton plan, and no unit is longer than a cold run's share of
// the grid per worker.
func planUnits(cells []Spec, todo []int, workers int) [][]int {
	limit := (len(todo) + workers - 1) / workers
	units := make([][]int, 0, len(todo))
	open := map[string]int{} // prefix key -> its open unit's index
	for _, i := range todo {
		k := cells[i].prefixKey()
		if k != "" {
			if u, ok := open[k]; ok && len(units[u]) < limit {
				units[u] = append(units[u], i)
				continue
			}
			open[k] = len(units)
		}
		units = append(units, []int{i})
	}
	return units
}

// runSharedGroup runs one prefix group: warmup once, checkpoint, then
// one restore-and-finish branch per cell, handing each result to done.
// Cancelling ctx stops the group before its next branch; branches that
// never start stay zero values, like unstarted cells.
func runSharedGroup(ctx context.Context, idxs []int, cells []Spec, w *Workloads, done func(i int, r Result)) {
	cr := start(cells[idxs[0]], w)
	defer cr.m.Close()
	ck, err := checkpoint.Take(cr.m, cr.sys, cr.shm)
	if err != nil {
		panic("harness: prefix checkpoint: " + err.Error())
	}
	for bi, i := range idxs {
		if ctx.Err() != nil {
			return
		}
		if bi > 0 {
			if err := ck.Restore(); err != nil {
				panic("harness: prefix restore: " + err.Error())
			}
		}
		if bi == len(idxs)-1 {
			ck.Detach() // last branch: no more restores, so skip CoW capture
		}
		cr.applyKnobs(cells[i])
		done(i, collectResult(cr.m, cr.finish()))
	}
}
