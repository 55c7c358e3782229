// Package socketlib is a stream-sockets-compatible library over VMMC,
// mirroring the SHRIMP sockets port ([17] in the paper): connections
// are pairs of flow-controlled byte streams with Read/Write semantics,
// plus the block-transfer extension the DFS cluster file system uses.
// The bulk-transfer mechanism (deliberate vs automatic update) is
// selectable, as in the paper's library what-if experiments.
package socketlib

import (
	"fmt"

	"shrimp/internal/ring"
	"shrimp/internal/sim"
	"shrimp/internal/stats"
	"shrimp/internal/vmmc"
)

// Config controls the library build.
type Config struct {
	// Mode selects deliberate vs automatic update for stream data.
	Mode ring.Mode
	// Combine enables AU combining (AU mode only).
	Combine bool
	// RingBytes is the per-direction buffer capacity.
	RingBytes int
}

// DefaultConfig uses deliberate update with 64 KB socket buffers.
func DefaultConfig() Config {
	return Config{Mode: ring.DU, Combine: true, RingBytes: 64 * 1024}
}

// Stack is the per-system sockets layer.
type Stack struct {
	sys       *vmmc.System
	cfg       Config
	listeners map[addr]*Listener
}

type addr struct {
	node int
	port int
}

// NewStack builds the sockets layer over sys.
func NewStack(sys *vmmc.System, cfg Config) *Stack {
	if cfg.RingBytes <= 0 {
		cfg.RingBytes = DefaultConfig().RingBytes
	}
	return &Stack{sys: sys, cfg: cfg, listeners: make(map[addr]*Listener)}
}

// Conn is one end of an established connection.
type Conn struct {
	peerNode          int
	tx, rx            *ring.Ring
	bytesIn, bytesOut int64
}

// ConnStats counts the bytes that moved through one end of a
// connection, framing included — the measured wire payload the
// open-loop workload reports goodput from.
type ConnStats struct {
	BytesIn  int64
	BytesOut int64
}

// Stats returns this end's byte counters.
func (c *Conn) Stats() ConnStats {
	return ConnStats{BytesIn: c.bytesIn, BytesOut: c.bytesOut}
}

// PeerNode reports the remote node.
func (c *Conn) PeerNode() int { return c.peerNode }

// Write sends data, blocking for socket-buffer space as needed.
func (c *Conn) Write(p *sim.Proc, data []byte) int {
	c.tx.Write(p, data)
	c.bytesOut += int64(len(data))
	return len(data)
}

// Read receives up to len(buf) bytes, blocking until at least one
// arrives.
func (c *Conn) Read(p *sim.Proc, buf []byte) int {
	n := c.rx.Read(p, buf)
	c.bytesIn += int64(n)
	return n
}

// ReadFull receives exactly len(buf) bytes.
func (c *Conn) ReadFull(p *sim.Proc, buf []byte) {
	c.rx.ReadFull(p, buf)
	c.bytesIn += int64(len(buf))
}

// Available reports bytes readable without blocking.
func (c *Conn) Available(p *sim.Proc) int { return c.rx.Available(p) }

// WriteBlock is the VMMC sockets block-transfer extension: a length
// -prefixed write the peer retrieves with ReadBlock. (On SHRIMP this
// avoided an extra copy; here it is framing sugar over the same
// zero-intermediary stream.)
func (c *Conn) WriteBlock(p *sim.Proc, data []byte) {
	var hdr [8]byte
	putUint64(hdr[:], uint64(len(data)))
	c.Write(p, hdr[:])
	c.Write(p, data)
}

// ReadBlock retrieves one block sent with WriteBlock.
func (c *Conn) ReadBlock(p *sim.Proc) []byte {
	var hdr [8]byte
	c.ReadFull(p, hdr[:])
	n := getUint64(hdr[:])
	data := make([]byte, n)
	c.ReadFull(p, data)
	return data
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func getUint64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

// Listener accepts connections on a (node, port) address.
type Listener struct {
	stack   *Stack
	addr    addr
	backlog *sim.Queue[*Conn]
}

// Listen binds a listener. It is a setup-time operation.
func (s *Stack) Listen(node, port int) *Listener {
	a := addr{node: node, port: port}
	if _, dup := s.listeners[a]; dup {
		panic(fmt.Sprintf("socketlib: port %d already bound on node %d", port, node))
	}
	l := &Listener{stack: s, addr: a, backlog: sim.NewQueue[*Conn](s.sys.M.E)}
	s.listeners[a] = l
	return l
}

// Accept blocks until a connection arrives.
func (l *Listener) Accept(p *sim.Proc) *Conn {
	nd := l.stack.sys.M.Nodes[l.addr.node]
	since := nd.CPUFor(p).BeginWait(p)
	c := l.backlog.Pop(p)
	nd.CPUFor(p).EndWait(p, stats.Comm, since)
	return c
}

// Dial connects from fromNode to a listener at (toNode, port), building
// the two directional streams. The connection handshake is modeled as a
// kernel operation on both ends.
func (s *Stack) Dial(p *sim.Proc, fromNode, toNode, port int) *Conn {
	l, ok := s.listeners[addr{node: toNode, port: port}]
	if !ok {
		panic(fmt.Sprintf("socketlib: connection refused to node %d port %d", toNode, port))
	}
	rc := ring.Config{Bytes: s.cfg.RingBytes, Mode: s.cfg.Mode, Combine: s.cfg.Combine}
	fwd := ring.New(s.sys.EP(fromNode), s.sys.EP(toNode), rc) // client -> server
	rev := ring.New(s.sys.EP(toNode), s.sys.EP(fromNode), rc) // server -> client
	client := &Conn{peerNode: toNode, tx: fwd, rx: rev}
	server := &Conn{peerNode: fromNode, tx: rev, rx: fwd}
	s.sys.M.Nodes[fromNode].CPUFor(p).ChargeOverhead(s.sys.M.Cfg.Cost.SyscallCost)
	if p != nil {
		s.sys.M.Nodes[fromNode].CPUFor(p).Flush(p)
	}
	l.backlog.Push(server)
	return client
}
