// Package sim is a one-package stand-in for the simulator's engine.
package sim

// Time is virtual time in nanoseconds.
type Time int64

// Engine owns the virtual clock.
type Engine struct{ now Time }

// Now reads the virtual clock.
func (e *Engine) Now() Time { return e.now }
