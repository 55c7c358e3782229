// Package vmmc exposes a node through an endpoint's field.
package vmmc

import "shrimp/internal/machine"

// Endpoint is one side of a connection.
type Endpoint struct {
	Node *machine.Node
}
