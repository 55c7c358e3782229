package ocean

import (
	"encoding/binary"
	"math"

	"shrimp/internal/machine"
	"shrimp/internal/nx"
	"shrimp/internal/sim"
)

// Message tags for the ghost-row exchange.
const (
	tagRowDown = 10 // row sent to the neighbor below
	tagRowUp   = 11 // row sent to the neighbor above
	tagGather  = 12
)

// rowBytes serializes cells [c0,c1) of one grid row.
func rowBytes(g []float64, stride, r, c0, c1 int) []byte {
	buf := make([]byte, 8*(c1-c0))
	for c := c0; c < c1; c++ {
		binary.LittleEndian.PutUint64(buf[8*(c-c0):], math.Float64bits(g[r*stride+c]))
	}
	return buf
}

// putRow deserializes cells starting at column c0 of one grid row.
func putRow(g []float64, stride, r, c0 int, buf []byte) {
	for i := 0; i < len(buf)/8; i++ {
		g[r*stride+c0+i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
}

// sendRow ships one row in ChunkCells-sized messages.
func sendRow(p *sim.Proc, pc *nx.Proc, dst, tag int, g []float64, stride, r, chunk int) {
	for c0 := 0; c0 < stride; c0 += chunk {
		c1 := c0 + chunk
		if c1 > stride {
			c1 = stride
		}
		pc.Send(p, dst, tag, rowBytes(g, stride, r, c0, c1))
	}
}

// recvRow reassembles one row from in-order chunks.
func recvRow(p *sim.Proc, pc *nx.Proc, src, tag int, g []float64, stride, r, chunk int) {
	for c0 := 0; c0 < stride; c0 += chunk {
		m := pc.Recv(p, src, tag)
		putRow(g, stride, r, c0, m.Data)
	}
}

// RunNX executes Ocean-NX: each rank holds a private slab with ghost
// rows and exchanges boundary rows with its neighbors after every
// half-sweep — the message-passing formulation of the same algorithm
// (§3). The result is validated against the sequential solver.
func RunNX(c *nx.Comm, pr Params) sim.Time {
	stride := pr.stride()
	nprocs := c.Size()
	init := initial(pr)
	final := make([]float64, stride*stride)
	copy(final, init)

	elapsed := c.System().M.RunParallel("ocean-nx", func(nd *machine.Node, p *sim.Proc) {
		pc := c.Proc(int(nd.ID))
		rank := pc.Rank()
		lo, hi := rowsFor(pr.N, nprocs, rank)
		// With more ranks than rows some slabs are empty. A rank without
		// rows sits out the exchange; every other rank trades ghost rows
		// with its nearest rank above and below that owns rows (-1: none,
		// the grid boundary).
		up, down := -1, -1
		if lo < hi {
			up, down = neighborNX(pr.N, nprocs, rank, -1), neighborNX(pr.N, nprocs, rank, +1)
		}
		// Private slab: full-size array, but this rank only maintains
		// rows [lo-1, hi] (its block plus ghosts).
		g := make([]float64, stride*stride)
		copy(g, init)
		cpu := nd.CPUFor(p)

		chunk := pr.ChunkCells
		if chunk <= 0 {
			chunk = stride
		}
		exchange := func() {
			// Send own boundary rows, then receive ghosts, in
			// fine-grained chunks as the SHRIMP NX port did.
			if up >= 0 {
				sendRow(p, pc, up, tagRowUp, g, stride, lo, chunk)
			}
			if down >= 0 {
				sendRow(p, pc, down, tagRowDown, g, stride, hi-1, chunk)
			}
			if up >= 0 {
				recvRow(p, pc, up, tagRowDown, g, stride, lo-1, chunk)
			}
			if down >= 0 {
				recvRow(p, pc, down, tagRowUp, g, stride, hi, chunk)
			}
		}

		for it := 0; it < pr.Iters; it++ {
			for color := 0; color < 2; color++ {
				for r := lo; r < hi; r++ {
					for cc := 1; cc <= pr.N; cc++ {
						if (r+cc)%2 != color {
							continue
						}
						g[r*stride+cc] = relaxCell(g, stride, r, cc)
						cpu.Charge(pr.CellCost)
					}
				}
				exchange()
			}
		}

		// Gather the blocks at rank 0 for validation.
		if rank == 0 {
			for r := lo; r < hi; r++ {
				copy(final[r*stride:(r+1)*stride], g[r*stride:(r+1)*stride])
			}
			for src := 1; src < nprocs; src++ {
				slo, shi := rowsFor(pr.N, nprocs, src)
				for r := slo; r < shi; r++ {
					m := pc.Recv(p, src, tagGather)
					putRow(final, stride, r, 0, m.Data)
				}
			}
		} else {
			for r := lo; r < hi; r++ {
				pc.Send(p, 0, tagGather, rowBytes(g, stride, r, 0, stride))
			}
		}
	})
	validate(pr, final)
	return elapsed
}

// neighborNX returns the nearest rank past rank in direction dir (-1
// up, +1 down) whose slab of interior rows is not empty, or -1 if there
// is none.
func neighborNX(n, nprocs, rank, dir int) int {
	for o := rank + dir; o >= 0 && o < nprocs; o += dir {
		if lo, hi := rowsFor(n, nprocs, o); lo < hi {
			return o
		}
	}
	return -1
}
