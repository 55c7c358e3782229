// Package sim stands in for the engine: fncontext identifies the
// blocking primitives by these receiver names and this package path,
// and the //shrimp:continuation directives mark the async
// registration points exactly as the real package does.
package sim

// Proc stands in for a simulation process.
type Proc struct{}

// Sleep parks the process: a blocking primitive.
func (p *Proc) Sleep(d int64) {}

// Verdict is a step's decision at its wakeup.
type Verdict uint8

// The verdicts.
const (
	Resume Verdict = iota
	Again
	Held
)

// Park parks the process, a blocking primitive, and runs step in
// engine context at each wakeup.
//
//shrimp:continuation
func (p *Proc) Park(d int64, v Verdict, step func() (int64, Verdict)) {}

// Engine stands in for the event engine.
type Engine struct{ now int64 }

// At schedules fn to run in engine context at time t.
//
//shrimp:continuation
func (e *Engine) At(t int64, fn func()) {}

// Spawn starts a process; legal from sim and machine, a diagnostic
// anywhere else.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc { return nil }

// Queue is a FIFO with blocking and continuation consumers.
type Queue struct{ items []int }

// Pop parks until an item arrives: a blocking primitive.
func (q *Queue) Pop(p *Proc) int { return 0 }

// TryPop never parks.
func (q *Queue) TryPop() (int, bool) { return 0, false }

// PopFn registers a continuation consumer.
//
//shrimp:continuation
func (q *Queue) PopFn(fn func(int)) {}

// Cond is a condition variable.
type Cond struct{}

// Wait parks the process: a blocking primitive.
func (c *Cond) Wait(p *Proc) {}

// Hold registers a stepped process as a waiter without parking: legal
// in a step.
func (c *Cond) Hold(p *Proc) {}

// WaitFn registers a continuation waiter.
//
//shrimp:continuation
func (c *Cond) WaitFn(fn func()) {}

// Resource is an exclusive resource.
type Resource struct{}

// Acquire parks until the resource is free: a blocking primitive.
func (r *Resource) Acquire(p *Proc) {}

// AcquireFn registers an acquisition continuation.
//
//shrimp:continuation
func (r *Resource) AcquireFn(fn func()) bool { return true }

// Drain pops until empty, parking between items: a blocking helper
// whose summary travels to importing packages as a fact.
func Drain(q *Queue, p *Proc) {
	for {
		_ = q.Pop(p)
	}
}
