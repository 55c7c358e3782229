package nic

import "shrimp/internal/sim"

// NIC stands in for the network interface a machine node holds.
type NIC struct{ c *sim.Cond }

// WaitAUReady parks while flow control stalls stores: a blocking call
// whose summary only this package's fact carries.
func (n *NIC) WaitAUReady(p *sim.Proc) { n.c.Wait(p) }
