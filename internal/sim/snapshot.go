package sim

import "fmt"

// Checkpoint support. The engine's entire dynamic state at a quiescent
// instant is three counters: the clock, the monotonic event sequence
// number, and the dispatch census (so a branch forked from a warmup
// reports the census of a cold run). Quiescent means the calendar is
// fully drained (empty heap, empty same-instant FIFO), no process is
// live or blocked, and no Run is in progress — exactly the state
// between two RunParallel phases. Everything else in the Engine is
// wiring (the event freelist, the tracer), the handoff slot that is
// only set inside a Run, or dead bookkeeping (finished processes), and
// restoring (now, seq) makes every subsequent Spawn/At/After reproduce
// the identical (t, seq) calendar a cold run would build.

// EngineSnapshot captures the engine's deterministic counters.
//
//shrimp:state
type EngineSnapshot struct {
	now    Time
	seq    uint64
	procs  int
	census Census
}

// Quiescent reports nil when the engine is at a checkpointable
// instant, or an error naming the first violated condition.
func (e *Engine) Quiescent() error {
	switch {
	case e.running:
		return fmt.Errorf("sim: engine is running")
	case len(e.events) > 0:
		return fmt.Errorf("sim: %d future events pending", len(e.events))
	case e.nowqAt < len(e.nowq):
		return fmt.Errorf("sim: %d same-instant events pending", len(e.nowq)-e.nowqAt)
	case e.live != 0:
		return fmt.Errorf("sim: %d live processes: %v", e.live, e.UnfinishedNames())
	case e.blocked != 0:
		return fmt.Errorf("sim: %d blocked processes", e.blocked)
	}
	return nil
}

// Snapshot captures the engine at a quiescent instant.
func (e *Engine) Snapshot() (EngineSnapshot, error) {
	if err := e.Quiescent(); err != nil {
		return EngineSnapshot{}, err
	}
	return EngineSnapshot{now: e.now, seq: e.seq, procs: len(e.all), census: e.census}, nil
}

// Restore rewinds the clock, sequence counter and census to the
// snapshot and drops bookkeeping for processes spawned after it (all
// finished — the engine must be quiescent here too, which the
// checkpoint orchestrator verifies before any layer restores).
func (e *Engine) Restore(s EngineSnapshot) {
	e.now = s.now
	e.seq = s.seq
	e.census = s.census
	for i := s.procs; i < len(e.all); i++ {
		e.all[i] = nil
	}
	e.all = e.all[:s.procs]
	e.nowq = e.nowq[:0]
	e.nowqAt = 0
	e.stopped = false
}
