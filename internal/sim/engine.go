package sim

import (
	"fmt"

	"shrimp/internal/trace"
)

// event is a single entry in the engine's calendar. Exactly one of fn and
// proc is set: fn events run inline wherever the event loop is running
// (no switch); proc events resume a parked process.
type event struct {
	t   Time
	seq uint64
	// idx is the event's position in the heap while it is heap-resident,
	// and -1 while it waits in the same-instant FIFO.
	idx      int
	fn       func()
	proc     *Proc
	canceled bool
}

// invalidSeq marks a recycled event so a stale Timer can detect that its
// event already fired (seq values are assigned monotonically and never
// reach this sentinel in practice).
const invalidSeq = ^uint64(0)

// less orders events by (time, scheduling order): the determinism
// invariant every experiment depends on.
func less(a, b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// Engine is a deterministic discrete-event simulator. The zero value is
// not usable; construct with NewEngine.
//
// Four structural choices keep the event hot path cheap:
//
//   - The calendar is split in two. Future events live in a hand-rolled
//     binary heap; events due at the current instant (zero-delay
//     callbacks, condition signals, resource handoffs — the overwhelmingly
//     common case) go to a plain FIFO slice, bypassing the O(log n) heap.
//     Because seq numbers increase monotonically and virtual time never
//     moves backwards, merging the two by (t, seq) at pop time reproduces
//     exactly the order a single heap would produce, so the fast path
//     cannot change any simulation outcome.
//
//   - Fired and canceled events are recycled through a freelist, so a
//     steady-state simulation allocates no event structures. A canceled
//     timer leaves the heap at once instead of waiting to be popped, so
//     the re-armed combining timeout (one cancel per snooped store) does
//     not grow the heap that every later push and pop sifts through.
//
//   - Processes run on runtime coroutines (iter.Pull, pooled and reused
//     across processes), not free-running goroutines. A parking process
//     runs the event loop inline, so an fn event or its own wakeup costs
//     no switch at all; when another process's event pops, it names that
//     process in handoff and yields to the run loop on Run's caller
//     goroutine, which resumes it. A switch is two direct coroutine
//     switches with no trip through the goroutine scheduler. Exactly one
//     coroutine runs at any instant, so the simulation stays
//     single-threaded and bit-for-bit deterministic.
//
//   - High-frequency actors avoid processes entirely. The blocking
//     primitives have continuation counterparts — Cond.WaitFn,
//     Resource.AcquireFn, Queue.PopFn, and the Seq step sequencer — that
//     schedule plain fn events at exactly the (t, seq) calendar positions
//     where the corresponding process wakeups would sit. Device engines
//     (internal/nic) run this way: their per-packet work dispatches
//     inline in whatever runs the event loop, with no process switch,
//     while app code (internal/machine) keeps the expressive blocking
//     style for its rare wakeups. Mixing the two styles on one Cond,
//     Resource, or Queue is legal; waiters of either kind are granted in
//     arrival order. See docs/engine.md for the determinism argument.
type Engine struct {
	now    Time
	seq    uint64
	events []*event //shrimp:nostate asserted: Quiescent requires an empty heap; there is nothing to copy
	nowq   []*event //shrimp:nostate asserted: Quiescent requires an empty same-instant FIFO; Restore re-empties it
	nowqAt int      //shrimp:nostate asserted: head index of the asserted-empty FIFO; Restore zeroes it

	// free is the event freelist.
	free []*event //shrimp:nostate wiring: freelist identity serves every branch; contents are dead events

	// limit bounds event timestamps during RunUntil.
	limit   Time //shrimp:nostate wiring: set afresh by every RunUntil call
	limited bool //shrimp:nostate wiring: set afresh by every RunUntil call

	// handoff names the process a parking process found next on the
	// calendar; the run loop resumes it. It is nil when the parked
	// process yielded because the calendar drained or Stop took effect.
	handoff *Proc //shrimp:nostate asserted: only set inside a Run, and Quiescent requires no Run in progress

	live    int     //shrimp:nostate asserted: Quiescent requires zero live processes
	blocked int     //shrimp:nostate asserted: Quiescent requires zero blocked processes
	all     []*Proc // procs spawned and not yet finished are forbidden at quiescence; Restore truncates

	running bool //shrimp:nostate asserted: Quiescent requires no Run in progress
	stopped bool //shrimp:nostate captured: quiescence implies false; Restore resets it explicitly

	// tr is the attached trace recorder, or nil when tracing is off.
	// Hardware and protocol layers cache it at construction; the engine
	// itself only records process lifecycle events.
	tr *trace.Recorder //shrimp:nostate wiring: tracer identity is per-run configuration, not rewindable state
}

// NewEngine returns an empty simulation at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// SetTracer attaches a trace recorder (nil detaches). It must be
// called before the hardware models are constructed: they cache the
// recorder pointer so their hot paths pay only a nil check when
// tracing is off.
func (e *Engine) SetTracer(tr *trace.Recorder) { e.tr = tr }

// Tracer returns the attached trace recorder, or nil.
func (e *Engine) Tracer() *trace.Recorder { return e.tr }

// Live reports the number of processes that have been spawned and have
// not yet returned.
func (e *Engine) Live() int { return e.live }

// Blocked reports the number of processes currently parked with no
// scheduled wakeup (i.e. waiting on a condition that nobody has signaled).
// After Run returns, a nonzero Blocked count indicates a deadlock.
func (e *Engine) Blocked() int { return e.blocked }

// alloc takes an event from the freelist or allocates a fresh one.
//
//shrimp:hotpath
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	//lint:ignore hotpath freelist-miss fill: amortized to zero once the calendar warms up
	return &event{}
}

// recycle returns a fired or canceled event to the freelist, dropping
// its references so closures and processes become collectible.
//
//shrimp:hotpath
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.proc = nil
	ev.canceled = false
	ev.seq = invalidSeq
	e.free = append(e.free, ev)
}

// push stamps ev with the next seq and files it on the calendar: the
// same-instant FIFO when it is due now, the heap otherwise.
//
//shrimp:hotpath
func (e *Engine) push(ev *event) {
	ev.seq = e.seq
	e.seq++
	if ev.t == e.now {
		ev.idx = -1
		e.nowq = append(e.nowq, ev)
		return
	}
	ev.idx = len(e.events)
	e.events = append(e.events, ev)
	e.siftUp(ev.idx)
}

// siftUp moves the heap event at i towards the root until its parent
// precedes it, keeping every moved event's idx current.
//
//shrimp:hotpath
func (e *Engine) siftUp(i int) {
	h := e.events
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		p := h[parent]
		if !less(ev, p) {
			break
		}
		h[i] = p
		p.idx = i
		i = parent
	}
	h[i] = ev
	ev.idx = i
}

// siftDown moves the heap event at i towards the leaves until it
// precedes both children, keeping every moved event's idx current.
//
//shrimp:hotpath
func (e *Engine) siftDown(i int) {
	h := e.events
	n := len(h)
	ev := h[i]
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		min := left
		if right := left + 1; right < n && less(h[right], h[left]) {
			min = right
		}
		c := h[min]
		if !less(c, ev) {
			break
		}
		h[i] = c
		c.idx = i
		i = min
	}
	h[i] = ev
	ev.idx = i
}

// heapRemove takes the event at heap index i out of the heap: the last
// leaf fills the hole and sifts to its place. Every (t, seq) key is
// distinct, so the order of the remaining events does not depend on
// which removals happened before.
//
//shrimp:hotpath
func (e *Engine) heapRemove(i int) {
	h := e.events
	n := len(h) - 1
	h[i].idx = -1
	last := h[n]
	h[n] = nil
	e.events = h[:n]
	if i == n {
		return
	}
	h[i] = last
	last.idx = i
	e.siftDown(i)
	if last.idx == i {
		e.siftUp(i)
	}
}

// next removes and returns the next live event, merging the same-instant
// FIFO with the heap by (t, seq) and discarding canceled entries. Events
// past the RunUntil limit are left in place and nil is returned.
//
//shrimp:hotpath
func (e *Engine) next() *event {
	for {
		var ev *event
		fromFIFO := false
		if e.nowqAt < len(e.nowq) {
			// FIFO entries carry t == now <= any heap entry's t; a heap
			// entry ties only at t == now, where seq decides.
			f := e.nowq[e.nowqAt]
			if len(e.events) == 0 || less(f, e.events[0]) {
				ev, fromFIFO = f, true
			} else {
				ev = e.events[0]
			}
		} else if len(e.events) > 0 {
			ev = e.events[0]
		} else {
			return nil
		}
		if e.limited && ev.t > e.limit {
			return nil
		}
		if fromFIFO {
			e.nowq[e.nowqAt] = nil
			e.nowqAt++
			if e.nowqAt == len(e.nowq) {
				e.nowq = e.nowq[:0]
				e.nowqAt = 0
			}
		} else {
			e.heapRemove(0)
		}
		if ev.canceled {
			e.recycle(ev)
			continue
		}
		return ev
	}
}

// At schedules fn to run in engine context at time t. Scheduling in the
// past panics: it would break causality.
//
//shrimp:hotpath
//shrimp:continuation
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.alloc()
	ev.t = t
	ev.fn = fn
	e.push(ev)
}

// After schedules fn to run in engine context d nanoseconds from now.
//
//shrimp:hotpath
//shrimp:continuation
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.At(e.now+d, fn)
}

// wake schedules p to resume at time t. p must be parked.
func (e *Engine) wake(p *Proc, t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: waking %s at %v before now %v", p.name, t, e.now))
	}
	ev := e.alloc()
	ev.t = t
	ev.proc = p
	e.push(ev)
}

// run is the shared Run/RunUntil body, on the caller's goroutine. It is
// the only place a process is resumed: it pops events like a parked
// process does, and when a process's event pops it resumes that process,
// then whichever process the parked one handed off to, until one yields
// with no handoff (drain or Stop) or returns from its body.
func (e *Engine) run() {
	for !e.stopped {
		ev := e.next()
		if ev == nil {
			return
		}
		e.now = ev.t
		if ev.fn != nil {
			fn := ev.fn
			e.recycle(ev)
			fn()
			continue
		}
		q := ev.proc
		e.recycle(ev)
		for q != nil {
			e.handoff = nil
			q.resume()
			q = e.handoff
		}
	}
}

// Run executes events until the calendar is empty or Stop is called.
// It returns the final virtual time. A Stop from a previous Run or
// RunUntil is cleared on entry, so a stopped engine can be resumed.
// If processes remain blocked on conditions when the calendar drains,
// Run returns anyway; callers can inspect Blocked to detect deadlock.
func (e *Engine) Run() Time {
	if e.running {
		panic("sim: Run called reentrantly")
	}
	e.running = true
	e.stopped = false
	e.limited = false
	defer func() { e.running = false }()
	e.run()
	return e.now
}

// RunUntil executes events with timestamps <= deadline and then stops,
// setting the clock to deadline if the simulation ran dry earlier. Like
// Run, it clears a leftover Stop on entry; if Stop is called while
// running, the clock is left where the last event put it.
func (e *Engine) RunUntil(deadline Time) Time {
	if e.running {
		panic("sim: RunUntil called reentrantly")
	}
	e.running = true
	e.stopped = false
	e.limit = deadline
	e.limited = true
	defer func() { e.running = false; e.limited = false }()
	e.run()
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// Stop makes Run return after the current event completes. The engine is
// not dead: the next Run or RunUntil clears the stop and continues from
// the pending calendar.
func (e *Engine) Stop() { e.stopped = true }

// Timer is a cancelable scheduled callback. It is a small value type so
// that re-arming a timer in a hot path (the NIC's combining timeout does
// this once per snooped store) performs no heap allocation; the zero
// Timer is valid and Cancel on it is a no-op.
type Timer struct {
	e   *Engine
	ev  *event
	seq uint64
}

// NewTimer schedules fn to run after d; the returned Timer can cancel it.
//
//shrimp:hotpath
//shrimp:continuation
func (e *Engine) NewTimer(d Time, fn func()) Timer {
	ev := e.alloc()
	ev.t = e.now + d
	ev.fn = fn
	e.push(ev)
	return Timer{e: e, ev: ev, seq: ev.seq}
}

// Cancel prevents the timer from firing. Canceling an already-fired or
// already-canceled timer is a no-op. It reports whether the cancellation
// took effect. A heap-resident event leaves the heap at once and is
// recycled; one already in the same-instant FIFO is flagged and skipped
// when it is reached. Either way the callback is released immediately, so
// anything its closure captures does not stay live. Removal assigns no
// seq and moves no live event, so the firing order cannot change.
//
//shrimp:hotpath
func (t *Timer) Cancel() bool {
	ev := t.ev
	if ev == nil || ev.seq != t.seq || ev.canceled {
		return false
	}
	if ev.idx >= 0 {
		t.e.heapRemove(ev.idx)
		t.e.recycle(ev)
		return true
	}
	ev.canceled = true
	ev.fn = nil
	return true
}

// UnfinishedNames lists the names of processes that have not completed,
// for deadlock diagnostics.
func (e *Engine) UnfinishedNames() []string {
	var names []string
	for _, p := range e.all {
		if !p.finished {
			names = append(names, p.name)
		}
	}
	return names
}
