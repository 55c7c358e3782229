// Package machine holds the NIC in a node, as the real package does:
// a package that reaches machine only through another's field types
// never imports nic itself.
package machine

import (
	"shrimp/internal/nic"
	"shrimp/internal/sim"
)

// Node is one compute node.
type Node struct {
	NIC *nic.NIC
}

// StoreBytes parks between the windows of its run: blocking.
func (nd *Node) StoreBytes(p *sim.Proc) { p.Sleep(1) }
