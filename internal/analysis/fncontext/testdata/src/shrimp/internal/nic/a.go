// Package nic exercises continuation safety across the package
// boundary: the directives live in sim, the registrations here, and
// the blocking summaries travel between them as facts.
package nic

import "shrimp/internal/sim"

type dev struct {
	e *sim.Engine
	q *sim.Queue
	c *sim.Cond
	r *sim.Resource
	// hook runs in fn-event context when the device completes a unit.
	//shrimp:continuation
	hook func()
}

// pump drains the queue without blocking: the legal continuation shape.
func (d *dev) pump() {
	for {
		if _, ok := d.q.TryPop(); !ok {
			break
		}
	}
	d.q.PopFn(d.recv)
}

func (d *dev) recv(v int) { d.pump() }

// badPump parks on the queue: illegal from continuation context.
func (d *dev) badPump() {
	_ = d.q.Pop(nil)
}

// badDrain blocks through an imported helper: the path arrives as a
// fact exported by sim.
func (d *dev) badDrain() {
	sim.Drain(d.q, nil)
}

// badSpawn forks a process: outside sim/machine that is a diagnostic.
func (d *dev) badSpawn() {
	d.e.Spawn("helper", func(p *sim.Proc) {})
}

func (d *dev) arm() {
	d.e.At(5, d.pump)
	d.e.At(5, d.badPump) // want `continuation passed to \(\*sim\.Engine\)\.At can reach a blocking call: \(\*nic\.dev\)\.badPump → \(\*sim\.Queue\)\.Pop`
	d.e.At(9, d.badDrain) // want `\(\*nic\.dev\)\.badDrain → sim\.Drain → \(\*sim\.Queue\)\.Pop`
	d.e.At(9, d.badSpawn) // want `\(\*sim\.Engine\)\.Spawn \(goroutine spawn outside sim/machine\)`
	d.q.PopFn(func(v int) { // want `continuation passed to \(\*sim\.Queue\)\.PopFn can reach a blocking call: func literal → \(\*nic\.dev\)\.badPump → \(\*sim\.Queue\)\.Pop`
		d.badPump()
	})
	d.c.WaitFn(d.pump)
	d.r.AcquireFn(d.pump)
}

func (d *dev) wire() {
	d.hook = d.pump
	d.hook = d.badPump // want `continuation assigned to nic\.dev\.hook can reach a blocking call`
}

func newDev(e *sim.Engine, q *sim.Queue) *dev {
	d := &dev{e: e, q: q}
	bad := &dev{hook: d.badPump} // want `continuation assigned to nic\.dev\.hook can reach a blocking call`
	_ = bad
	return d
}

// register arms fn as this device's completion continuation; its own
// directive makes fn safe by induction inside the body.
//
//shrimp:continuation
func (d *dev) register(fn func()) {
	d.hook = fn
}

func (d *dev) use() {
	d.register(d.pump)
	d.register(d.badPump) // want `continuation passed to \(\*nic\.dev\)\.register can reach a blocking call`
}

// window is a legal Park step: it re-arms without blocking.
func (d *dev) window() (int64, sim.Verdict) {
	d.pump()
	return 1, sim.Again
}

// badWindow waits on a condition: illegal in a wakeup step.
func (d *dev) badWindow() (int64, sim.Verdict) {
	d.c.Wait(nil)
	return 0, sim.Resume
}

// hold is a legal step: it holds its process on the condition and
// returns Held instead of waiting.
func (d *dev) hold() (int64, sim.Verdict) {
	d.c.Hold(nil)
	return 0, sim.Held
}

// badHold parks in Park, itself a blocking call: illegal in a step.
func (d *dev) badHold() (int64, sim.Verdict) {
	var p *sim.Proc
	d.c.Hold(p)
	p.Park(0, sim.Held, d.hold)
	return 0, sim.Resume
}

// stream parks in Park, itself a blocking call, from process context,
// after a flush and after a hold; only its steps run in continuation
// context, whichever verdict parks them.
func (d *dev) stream(p *sim.Proc) {
	p.Park(1, sim.Again, d.window)
	p.Park(1, sim.Again, d.badWindow) // want `continuation passed to \(\*sim\.Proc\)\.Park can reach a blocking call: \(\*nic\.dev\)\.badWindow → \(\*sim\.Cond\)\.Wait`
	d.c.Hold(p)
	p.Park(0, sim.Held, d.hold)
	d.c.Hold(p)
	p.Park(0, sim.Held, d.badHold) // want `continuation passed to \(\*sim\.Proc\)\.Park can reach a blocking call: \(\*nic\.dev\)\.badHold → \(\*sim\.Proc\)\.Park`
	d.c.Hold(p)
	p.Park(0, sim.Held, d.badWindow) // want `\(\*nic\.dev\)\.badWindow → \(\*sim\.Cond\)\.Wait`
}
