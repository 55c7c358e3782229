// Package ring imports only sim and vmmc, yet its steps call methods
// declared in machine and nic through vmmc's field types: their
// blocking summaries come from the declaring packages' facts.
package ring

import (
	"shrimp/internal/sim"
	"shrimp/internal/vmmc"
)

type writeRun struct {
	ep *vmmc.Endpoint
	p  *sim.Proc
}

// wake waits out a flow-control stall in a step: illegal.
func (w *writeRun) wake() (int64, sim.Verdict) {
	w.ep.Node.NIC.WaitAUReady(w.p)
	return 0, sim.Resume
}

// store runs a store loop that parks, in a step: illegal.
func (w *writeRun) store() (int64, sim.Verdict) {
	w.ep.Node.StoreBytes(w.p)
	return 0, sim.Resume
}

func (w *writeRun) run() {
	w.p.Park(1, sim.Again, w.wake)  // want `continuation passed to \(\*sim\.Proc\)\.Park can reach a blocking call: \(\*ring\.writeRun\)\.wake → \(\*nic\.NIC\)\.WaitAUReady → \(\*sim\.Cond\)\.Wait`
	w.p.Park(1, sim.Again, w.store) // want `\(\*ring\.writeRun\)\.store → \(\*machine\.Node\)\.StoreBytes → \(\*sim\.Proc\)\.Sleep`
}
