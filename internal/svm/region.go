package svm

import (
	"math"

	"shrimp/internal/memory"
	"shrimp/internal/sim"
)

// Region accessors: applications read and write the shared region by
// byte offset. Writes go through the machine's store helpers so that
// write-through (automatic update) costs, flow control and snooping all
// apply; protection faults drive the consistency protocol.

// ReadUint32 loads a 32-bit word from region offset off.
func (rt *Runtime) ReadUint32(p *sim.Proc, off int) uint32 {
	return rt.node.LoadUint32(p, rt.Addr(off))
}

// WriteUint32 stores a 32-bit word at region offset off.
func (rt *Runtime) WriteUint32(p *sim.Proc, off int, v uint32) {
	rt.node.StoreUint32(p, rt.Addr(off), v)
}

// ReadUint64 loads a 64-bit word from region offset off.
func (rt *Runtime) ReadUint64(p *sim.Proc, off int) uint64 {
	return rt.node.LoadUint64(p, rt.Addr(off))
}

// WriteUint64 stores a 64-bit word at region offset off.
func (rt *Runtime) WriteUint64(p *sim.Proc, off int, v uint64) {
	rt.node.StoreUint64(p, rt.Addr(off), v)
}

// ReadFloat64 loads a float64 from region offset off.
func (rt *Runtime) ReadFloat64(p *sim.Proc, off int) float64 {
	return math.Float64frombits(rt.ReadUint64(p, off))
}

// WriteFloat64 stores a float64 at region offset off.
func (rt *Runtime) WriteFloat64(p *sim.Proc, off int, v float64) {
	rt.WriteUint64(p, off, math.Float64bits(v))
}

// PageSize re-exports the system page size for layout computations.
const PageSize = memory.PageSize
