//go:build go1.23

// This file builds processes on iter.Pull (go1.23); go.mod stays at
// go 1.22, so the build constraint raises this file's language version.

package sim

import (
	"fmt"
	"iter"
	"sync"

	"shrimp/internal/trace"
)

// Proc is a simulation process: a body run on a coroutine, interleaved
// with all other processes under control of the Engine, so that exactly
// one process runs at a time and virtual time only advances while every
// process is parked.
type Proc struct {
	e    *Engine
	name string
	body func(p *Proc)
	// c is the coroutine running body: nil until the process is first
	// resumed, and again once the body has returned.
	c *carrier
	// step, while the process is parked in Park, runs at each of its
	// wakeups in place of resuming it.
	step func() (next Time, v Verdict)
	// held says the process, parked in a step, is held on a Cond (Hold)
	// and counts as Blocked until that wakeup pops.
	held     bool
	finished bool
	killed   bool
	ctx      any
}

// killSignal unwinds a parked process's body during Shutdown.
type killSignal struct{}

// carrier is a coroutine (iter.Pull) that runs process bodies one after
// another. When a body returns, its carrier goes back to a process-wide
// idle pool instead of exiting, for two reasons: a spawn then creates no
// goroutine, and under the race detector the Go 1.24 runtime leaks about
// 4.7 KB of detector state per exited coroutine (its exit path never
// ends the goroutine's race context), which one coroutine per process
// would pile up across the ~60,000 spawns of one quick sweep.
type carrier struct {
	p     *Proc // the process being run, nil while idle
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// maxIdleCarriers bounds the idle pool; a carrier released beyond it
// exits. A serial quick sweep needs 144 carriers in all, so the bound
// only bites after a burst of blocked processes or many parallel cells.
const maxIdleCarriers = 256

// carriers is the idle pool, shared by every engine. The mutex orders a
// carrier's use by one engine (on one harness worker) before its reuse
// by another.
var carriers struct {
	sync.Mutex
	idle []*carrier
}

// takeCarrier returns an idle carrier, or starts a new one.
func takeCarrier() *carrier {
	carriers.Lock()
	if n := len(carriers.idle); n > 0 {
		c := carriers.idle[n-1]
		carriers.idle[n-1] = nil
		carriers.idle = carriers.idle[:n-1]
		carriers.Unlock()
		return c
	}
	carriers.Unlock()
	c := &carrier{}
	c.next, c.stop = iter.Pull(c.loop)
	return c
}

// release returns an idle carrier to the pool, or ends its coroutine
// when the pool is full.
func (c *carrier) release() {
	carriers.Lock()
	pooled := len(carriers.idle) < maxIdleCarriers
	if pooled {
		carriers.idle = append(carriers.idle, c)
	}
	carriers.Unlock()
	if !pooled {
		c.stop()
	}
}

// loop is the carrier's coroutine body: run the assigned process, then
// yield idle until the next assignment resumes it.
func (c *carrier) loop(yield func(struct{}) bool) {
	c.yield = yield
	for {
		c.p.run()
		c.p = nil
		if !yield(struct{}{}) {
			return
		}
	}
}

// run executes the body on the current carrier. A killSignal ends it
// quietly; any other panic ends the carrier's coroutine and propagates
// out of Engine.Run.
func (p *Proc) run() {
	defer func() {
		p.finished = true
		p.body = nil
		p.step = nil
		p.e.live--
		if r := recover(); r != nil {
			if _, ok := r.(killSignal); !ok {
				panic(r)
			}
		}
	}()
	p.body(p)
}

// resume runs p until it parks or its body returns; only Engine.run and
// Shutdown call it. A finished process is not resumed: a wakeup left on
// the calendar by a process that ended in a panic is dropped.
func (p *Proc) resume() {
	if p.finished {
		return
	}
	p.e.census.Handoffs++
	c := p.c
	if c == nil {
		c = takeCarrier()
		c.p = p
		p.c = c
	}
	c.next()
	if p.finished {
		p.c = nil
		c.release()
	}
}

// Spawn creates a new simulation process that begins executing body at
// the current virtual time (after the caller yields). The name is used
// in diagnostics only.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	return e.SpawnAt(e.now, name, body)
}

// SpawnAt creates a new simulation process that begins executing at time
// t. Spawning in the past panics, as scheduling any event there does.
//
// A panic in the body (or in an fn event that runs inline while the
// process is parked) ends the process and propagates out of Run to its
// caller; Shutdown still unwinds the other processes.
func (e *Engine) SpawnAt(t Time, name string, body func(p *Proc)) *Proc {
	if t < e.now {
		panic(fmt.Sprintf("sim: spawning %s at %v before now %v", name, t, e.now))
	}
	p := &Proc{e: e, name: name, body: body}
	e.live++
	e.all = append(e.all, p)
	ev := e.alloc()
	ev.t = t
	ev.proc = p
	e.push(ev)
	if e.tr != nil {
		e.tr.Record(int64(t), trace.KProcSpawn, -1, int64(e.live), 0)
	}
	return p
}

// Shutdown terminates every unfinished process (deadlocked waiters,
// processes left parked by Stop, RunUntil or a panic), returning their
// carriers to the pool. Call only after Run has returned; the engine is
// unusable afterwards.
func (e *Engine) Shutdown() {
	if e.running {
		panic("sim: Shutdown during Run")
	}
	for _, p := range e.all {
		if !p.finished {
			p.kill()
		}
	}
	e.all = nil
	e.events = nil
	e.nowq = nil
	e.nowqAt = 0
	e.free = nil
}

// kill ends p: a parked body is resumed with killed set and unwinds
// through killSignal; a never-started one is marked finished unrun.
func (p *Proc) kill() {
	p.killed = true
	if p.c == nil {
		p.finished = true
		p.body = nil
		p.e.live--
		return
	}
	p.resume()
}

// SetContext attaches an arbitrary client value to the process. The
// machine layer uses it to bind accounting contexts without a map lookup
// on every memory operation.
func (p *Proc) SetContext(v any) { p.ctx = v }

// Context returns the value set with SetContext, or nil.
func (p *Proc) Context() any { return p.ctx }

// Name reports the diagnostic name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.e }

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// park yields control to the engine and blocks until some event resumes
// this process. The caller must have arranged for a wakeup (a scheduled
// event or registration on a Cond) or the process deadlocks. The parking
// process runs the event loop inline: fn events run here, and when its
// own wakeup is next it continues with no switch at all. When another
// process's event pops, park names that process in Engine.handoff and
// yields to the run loop, which resumes it; on drain or Stop it yields
// with no handoff. A wakeup of a process parked in Park, this one
// included, runs that process's step here first.
func (p *Proc) park() {
	e := p.e
	for !e.stopped {
		ev := e.next()
		if ev == nil {
			break
		}
		e.now = ev.t
		if ev.fn != nil {
			fn := ev.fn
			e.recycle(ev)
			e.census.FnEvents++
			fn()
			continue
		}
		q := ev.proc
		e.recycle(ev)
		if q.step != nil && e.stepped(q) {
			continue
		}
		if q == p {
			e.census.SelfWakeups++
			return
		}
		e.handoff = q
		break
	}
	p.c.yield(struct{}{})
	if p.killed {
		panic(killSignal{})
	}
}

// Sleep advances this process's local time by d, yielding to the engine.
// When its wakeup would be the next event to pop, it is taken in place
// (Engine.skipTo) and Sleep returns at once.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	e := p.e
	// Even a zero sleep is a scheduling point: it lets same-time events
	// that were scheduled earlier run first.
	if e.skipTo(e.now + d) {
		e.census.Skips++
		return
	}
	e.wake(p, e.now+d)
	p.park()
}

// Verdict is a step's decision at the wakeup it just handled, and
// Park's at the point the process parks.
type Verdict uint8

const (
	// Resume resumes the process at this same wakeup, with no event in
	// between; its Park returns.
	Resume Verdict = iota
	// Again keeps the process parked and files its next wakeup next
	// from now, exactly where Sleep(next) would.
	Again
	// Held keeps the process parked with no wakeup filed: the step has
	// held it on a Cond with Hold, where Wait would have parked it, and
	// that Cond's signal files the next wakeup.
	Held
)

// Park parks the process in step. v is the verdict of the work the
// process did itself before parking: Again sleeps d, always filing the
// wakeup on the calendar (one taken in place would resume the process
// without running step); Held needs the process already held on a Cond
// (Hold); Resume returns at once. Each wakeup then runs step, inline
// and at that wakeup's (t, seq) calendar position, in place of resuming
// the process. The step's Verdict says what happens next: Again and
// Held keep the process parked until the next wakeup, whose step runs
// the same way; Resume resumes it at this wakeup and Park returns. A
// step that returns Held has held its own process, whether it runs on
// the process or inline. The step therefore runs code the process
// would have run at the same calendar position, and costs an inline
// call where a wakeup by another process would cost a switch. A step
// runs in continuation context and must not block; a panic in it
// propagates out of Run like a panic in an fn event.
//
//shrimp:continuation
func (p *Proc) Park(d Time, v Verdict, step func() (next Time, v Verdict)) {
	switch v {
	case Again:
		if d < 0 {
			panic("sim: negative sleep")
		}
		p.e.wake(p, p.e.now+d)
	case Held:
		p.mustBeHeld()
	default:
		return
	}
	p.step = step
	p.park()
}

// mustBeHeld panics unless p, whose step or work returned Held, is held
// on a Cond: with no hold, nothing would ever wake it.
func (p *Proc) mustBeHeld() {
	if !p.held {
		panic("sim: step returned Held without holding its process on a Cond")
	}
}

// SleepUntil parks until virtual time t (no-op if t is in the past).
func (p *Proc) SleepUntil(t Time) {
	if t <= p.e.now {
		return
	}
	p.e.wake(p, t)
	p.park()
}

// block parks the process with no scheduled wake; the engine counts it
// as blocked until something wakes it.
func (p *Proc) block() {
	p.e.blocked++
	p.park()
	p.e.blocked--
}

// waiter is one entry in a Cond's or a Resource's FIFO: a parked
// process or a registered continuation callback. Exactly one of p and
// fn is set.
type waiter struct {
	p *Proc
	//shrimp:continuation
	fn func()
}

// wake files w's wakeup at the current instant: the process's wakeup
// event, or the callback as an fn event.
//
//shrimp:hotpath
func (w waiter) wake(e *Engine) {
	if w.fn != nil {
		e.At(e.now, w.fn)
		return
	}
	e.wake(w.p, e.now)
}

// wakeFirst pops the head of the non-empty FIFO q and wakes it.
//
//shrimp:hotpath
func wakeFirst(e *Engine, q *[]waiter) {
	w := (*q)[0]
	copy(*q, (*q)[1:])
	(*q)[len(*q)-1] = waiter{}
	*q = (*q)[:len(*q)-1]
	w.wake(e)
}

// Cond is a simulation-time condition variable. Processes Wait on it;
// continuation state machines register callbacks with WaitFn; any code
// (engine context or another process) may Signal or Broadcast. Both
// waiter kinds share one FIFO, so wakeups occur in registration order at
// the signaling instant regardless of style: a woken process resumes via
// a proc event, a callback runs as an inline fn event, and the two land
// at the same (t, seq) calendar position either way.
type Cond struct {
	e       *Engine
	waiters []waiter
}

// NewCond returns a condition bound to engine e.
func NewCond(e *Engine) *Cond { return &Cond{e: e} }

// Wait parks the calling process until a Signal or Broadcast wakes it.
// As with sync.Cond, the surrounding predicate must be re-checked in a
// loop by the caller when multiple waiters compete.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, waiter{p: p})
	p.block()
}

// Hold registers p, parked in a step or about to Park, as a waiter on
// c, at the place in c's FIFO where Wait(p) would: the step then
// returns Held, and c's Signal or Broadcast files p's next wakeup. p
// counts as Blocked from here until that wakeup pops.
//
//shrimp:hotpath
func (c *Cond) Hold(p *Proc) {
	c.waiters = append(c.waiters, waiter{p: p})
	p.held = true
	c.e.blocked++
}

// WaitFn registers fn to be scheduled (as a fn event at the signaling
// instant) by the next Signal or Broadcast that reaches it. The
// registration is one-shot: a persistent waiter re-registers from inside
// its callback, re-checking its predicate first exactly as a Wait loop
// would. Unlike parked processes, registered callbacks do not count as
// Blocked: an idle device engine waiting for work is not a deadlock.
//
//shrimp:hotpath
//shrimp:continuation
func (c *Cond) WaitFn(fn func()) {
	c.waiters = append(c.waiters, waiter{fn: fn})
}

// Waiters reports how many processes or callbacks are currently waiting.
func (c *Cond) Waiters() int { return len(c.waiters) }

// Signal wakes the longest-waiting process or callback, if any.
//
//shrimp:hotpath
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	wakeFirst(c.e, &c.waiters)
}

// Broadcast wakes every waiting process and callback.
//
//shrimp:hotpath
func (c *Cond) Broadcast() {
	for i, w := range c.waiters {
		w.wake(c.e)
		c.waiters[i] = waiter{}
	}
	c.waiters = c.waiters[:0]
}

// Resource is a non-preemptive, FIFO-queued exclusive resource: the model
// used for the memory bus (which cannot cycle-share between the CPU and
// the network interface). Blocking (Acquire) and continuation-style
// (AcquireFn) clients share one wait queue, so grant order is arrival
// order regardless of style.
type Resource struct {
	e     *Engine
	held  bool
	queue []waiter
}

// NewResource returns an idle resource bound to engine e.
func NewResource(e *Engine) *Resource { return &Resource{e: e} }

// Acquire blocks p until the resource is free, then takes it.
func (r *Resource) Acquire(p *Proc) {
	if !r.held && len(r.queue) == 0 {
		r.held = true
		return
	}
	r.queue = append(r.queue, waiter{p: p})
	// Ownership is transferred directly by Release, so on wake the
	// resource is already held on this process's behalf.
	p.block()
}

// AcquireFn takes the resource immediately if it is free, reporting
// true — mirroring Acquire's no-yield fast path. Otherwise it queues fn
// to be run (as a fn event at the release instant) once ownership is
// transferred to it, and reports false. Either way the caller owns the
// resource when its continuation executes and must eventually Release.
//
//shrimp:hotpath
//shrimp:continuation
func (r *Resource) AcquireFn(fn func()) bool {
	if !r.held && len(r.queue) == 0 {
		r.held = true
		return true
	}
	r.queue = append(r.queue, waiter{fn: fn})
	return false
}

// TryAcquire takes the resource if it is free, reporting success.
func (r *Resource) TryAcquire() bool {
	if r.held || len(r.queue) > 0 {
		return false
	}
	r.held = true
	return true
}

// Release frees the resource or, if processes or callbacks are waiting,
// transfers ownership directly to the longest waiter (so no third party
// can steal the resource between release and wakeup).
//
//shrimp:hotpath
func (r *Resource) Release() {
	if !r.held {
		panic("sim: Release of unheld resource")
	}
	if len(r.queue) == 0 {
		r.held = false
		return
	}
	wakeFirst(r.e, &r.queue)
}

// Busy reports whether the resource is currently held.
func (r *Resource) Busy() bool { return r.held }
