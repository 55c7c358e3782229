// Package sim stands in for the engine's sequencer: seqmachine
// identifies Seq methods by this package path and the receiver name,
// not by the implementation.
package sim

// Ctl is a step's control verdict.
type Ctl int

// Wait parks the machine until an armed continuation resumes it.
const Wait Ctl = -1

// Time is a simulated instant.
type Time int64

// Engine stands in for the event engine.
type Engine struct{ now Time }

// Resource stands in for an exclusive resource (a memory bus).
type Resource struct{}

// Seq is the sequencer stub.
type Seq struct {
	n  int
	pc int
}

// Init binds the machine to a step count and dispatch function.
func (s *Seq) Init(e *Engine, n int, step func(pc int) Ctl) { s.n = n }

// Start enters the machine at pc.
func (s *Seq) Start(pc int) { s.pc = pc }

// Next advances to the following step.
func (s *Seq) Next() Ctl { return Ctl(s.pc + 1) }

// Goto jumps to step i.
func (s *Seq) Goto(i int) Ctl { return Ctl(i) }

// Sleep advances after d elapses.
func (s *Seq) Sleep(d Time) Ctl { return Ctl(s.pc + 1) }

// Acquire advances once r is held.
func (s *Seq) Acquire(r *Resource) Ctl { return Ctl(s.pc + 1) }
