// Package dfs implements the paper's DFS-sockets workload: a
// distributed cluster file system over the stream-sockets library. File
// blocks are striped over server nodes and held in memory (the paper's
// experiment is configured so there are many node-to-node block
// transfers but no disk I/O); client threads on half the nodes read
// large files whose working set exceeds one node's cache but fits in
// the cluster's collective memory (§3).
package dfs

import (
	"encoding/binary"
	"fmt"

	"shrimp/internal/machine"
	"shrimp/internal/sim"
	"shrimp/internal/socketlib"
	"shrimp/internal/vmmc"
)

// Params configures the workload.
type Params struct {
	FilesPerClient int
	BlocksPerFile  int
	BlockSize      int
	// CacheBlocks is each client's local block-cache capacity. The
	// workload is sized so a client's working set exceeds it.
	CacheBlocks int
	// BlockTouchCost models the client-side processing of one block
	// (checksum, page mapping) on the 60 MHz node.
	BlockTouchCost sim.Time
}

// DefaultParams mirrors the paper's setup shape: per-client working set
// larger than the local cache.
func DefaultParams() Params {
	return Params{
		FilesPerClient: 3,
		BlocksPerFile:  48,
		BlockSize:      8192,
		CacheBlocks:    32,
		BlockTouchCost: 200 * sim.Microsecond,
	}
}

// Port is the well-known port the DFS block service listens on.
const Port = 100

const dfsPort = Port

// Home returns the node a block is striped to.
func Home(file, idx, nprocs int) int { return (file*7 + idx) % nprocs }

// BlockContent deterministically generates a file block — the
// in-memory store lookup every server performs. Exported so external
// drivers (internal/workload) can verify blocks end to end.
func BlockContent(file, idx, size int) []byte { return blockContent(file, idx, size) }

// BlockSum is the expected checksum of a block.
func BlockSum(b []byte) uint64 { return blockSum(b) }

// blockContent deterministically generates a file block.
func blockContent(file, idx, size int) []byte {
	b := make([]byte, size)
	x := uint64(file)*2654435761 + uint64(idx)*40503 + 12345
	for i := 0; i < size; i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(b[i:], x)
	}
	return b
}

// blockSum is the expected checksum of a block.
func blockSum(b []byte) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(b); i += 8 {
		h = (h ^ binary.LittleEndian.Uint64(b[i:])) * 1099511628211
	}
	return h
}

// lru is a tiny block cache.
type lru struct {
	cap   int
	items map[[2]int][]byte
	order [][2]int
}

func newLRU(capacity int) *lru {
	return &lru{cap: capacity, items: make(map[[2]int][]byte)}
}

func (c *lru) get(key [2]int) ([]byte, bool) {
	b, ok := c.items[key]
	if ok {
		c.touch(key)
	}
	return b, ok
}

func (c *lru) touch(key [2]int) {
	for i, k := range c.order {
		if k == key {
			copy(c.order[i:], c.order[i+1:])
			c.order[len(c.order)-1] = key
			return
		}
	}
}

func (c *lru) put(key [2]int, b []byte) {
	if _, dup := c.items[key]; dup {
		c.touch(key)
		return
	}
	if len(c.order) >= c.cap {
		victim := c.order[0]
		c.order = c.order[1:]
		delete(c.items, victim)
	}
	c.items[key] = b
	c.order = append(c.order, key)
}

// Run executes the DFS workload over a machine, returning the parallel
// execution time. Clients run on the first half of the nodes (all nodes
// serve blocks); with one node everything is local.
func Run(sys *vmmc.System, cfg socketlib.Config, pr Params) sim.Time {
	m := sys.M
	nprocs := len(sys.EPs)
	stack := socketlib.NewStack(sys, cfg)

	nclients := nprocs / 2
	if nclients == 0 {
		nclients = 1
	}

	// Block home assignment: stripe across all nodes.
	home := func(file, idx int) int { return Home(file, idx, nprocs) }

	StartServers(sys, stack, pr)

	totalClients := nclients
	elapsed := m.RunParallel("dfs", func(nd *machine.Node, p *sim.Proc) {
		rank := int(nd.ID)
		if rank >= totalClients {
			return
		}
		runClient(p, stack, nd, rank, nprocs, home, pr)
	})
	return elapsed
}

// StartServers spawns the block service on every node: one listener
// per node, each accepted connection served in its own handler process
// (a server thread competing with that node's client thread for the
// CPU). On a single node there is nothing to serve remotely and no
// servers start. Exported so the open-loop workload generator can
// drive the same service the batch workload uses.
func StartServers(sys *vmmc.System, stack *socketlib.Stack, pr Params) {
	m := sys.M
	nprocs := len(sys.EPs)
	if nprocs <= 1 {
		return
	}
	for nIdx := 0; nIdx < nprocs; nIdx++ {
		nd := m.Nodes[nIdx]
		l := stack.Listen(nIdx, dfsPort)
		nd.SpawnHandler(fmt.Sprintf("dfs-accept@%d", nIdx), func(p *sim.Proc, c *machine.CPU) {
			for {
				conn := l.Accept(p)
				nd.SpawnHandler(fmt.Sprintf("dfs-serve@%d", nIdx), func(p *sim.Proc, c *machine.CPU) {
					serveConn(p, c, nd, conn, pr)
				})
			}
		})
	}
}

// serveConn answers block requests on one connection.
func serveConn(p *sim.Proc, c *machine.CPU, nd *machine.Node, conn *socketlib.Conn, pr Params) {
	for {
		req := conn.ReadBlock(p)
		if len(req) != 8 {
			panic("dfs: malformed request")
		}
		file := int(binary.LittleEndian.Uint32(req[0:]))
		idx := int(binary.LittleEndian.Uint32(req[4:]))
		// "Disk" read from server memory: generation stands in for the
		// in-memory store lookup.
		blk := blockContent(file, idx, pr.BlockSize)
		c.Charge(nd.M.Cfg.Cost.CopyTime(pr.BlockSize))
		conn.WriteBlock(p, blk)
	}
}

// runClient reads the client's file set twice: a warm-up pass and the
// measured pass (the paper warms caches before the experiment).
func runClient(p *sim.Proc, stack *socketlib.Stack, nd *machine.Node, rank, nprocs int,
	home func(file, idx int) int, pr Params) {
	cache := newLRU(pr.CacheBlocks)
	conns := make(map[int]*socketlib.Conn)
	cpu := nd.CPUFor(p)

	readBlock := func(file, idx int) {
		key := [2]int{file, idx}
		if blk, ok := cache.get(key); ok {
			cpu.Charge(pr.BlockTouchCost)
			if blockSum(blk) != blockSum(blockContent(file, idx, pr.BlockSize)) {
				panic("dfs: cached block corrupted")
			}
			return
		}
		h := home(file, idx)
		var blk []byte
		if h == rank || nprocs == 1 {
			blk = blockContent(file, idx, pr.BlockSize)
			cpu.Charge(nd.M.Cfg.Cost.CopyTime(pr.BlockSize))
		} else {
			conn := conns[h]
			if conn == nil {
				conn = stack.Dial(p, rank, h, dfsPort)
				conns[h] = conn
			}
			var req [8]byte
			binary.LittleEndian.PutUint32(req[0:], uint32(file))
			binary.LittleEndian.PutUint32(req[4:], uint32(idx))
			conn.WriteBlock(p, req[:])
			blk = conn.ReadBlock(p)
		}
		if blockSum(blk) != blockSum(blockContent(file, idx, pr.BlockSize)) {
			panic(fmt.Sprintf("dfs: block %d/%d corrupted in transit", file, idx))
		}
		cache.put(key, blk)
		cpu.Charge(pr.BlockTouchCost)
	}

	for pass := 0; pass < 2; pass++ {
		for f := 0; f < pr.FilesPerClient; f++ {
			file := rank*pr.FilesPerClient + f
			for b := 0; b < pr.BlocksPerFile; b++ {
				readBlock(file, b)
			}
		}
	}
}
