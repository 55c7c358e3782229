// Package nx is an NX-compatible message-passing library over VMMC,
// mirroring the SHRIMP NX port ([2] in the paper): tagged synchronous
// sends and receives with source/tag selectors, plus a global barrier.
// The bulk-transfer mechanism is selectable between deliberate update
// and automatic update, which is exactly the what-if comparison of
// Figure 4 (right).
package nx

import (
	"encoding/binary"
	"fmt"
	"math"

	"shrimp/internal/machine"
	"shrimp/internal/ring"
	"shrimp/internal/sim"
	"shrimp/internal/vmmc"
)

// Any is the wildcard source or tag selector.
const Any = -1

// Reserved tags used internally by collectives.
const (
	tagBarrierArrive  = -100
	tagBarrierRelease = -101
)

const hdrBytes = 16

// Config controls the library build.
type Config struct {
	// Mode selects deliberate vs automatic update for message payloads.
	Mode ring.Mode
	// RingBytes is the per-sender-receiver channel capacity.
	RingBytes int
}

// DefaultConfig uses deliberate update with 128 KB channels.
func DefaultConfig() Config {
	return Config{Mode: ring.DU, RingBytes: 128 * 1024}
}

// Comm is an NX communicator spanning all nodes of a system.
type Comm struct {
	sys   *vmmc.System
	cfg   Config
	procs []*Proc
}

// Msg is a received, reassembled message.
type Msg struct {
	Src, Tag int
	Data     []byte
}

// parser tracks incremental header/payload reassembly per source.
// Payloads larger than the channel capacity stream through in pieces.
type parser struct {
	haveHdr bool
	tag     int
	need    int
	data    []byte
	got     int
}

// Proc is the per-rank NX library state.
type Proc struct {
	comm    *Comm
	rank    int
	node    *machine.Node
	ep      *vmmc.Endpoint
	out     []*ring.Ring
	in      []*ring.Ring
	ps      []parser
	inbox   []Msg
	seen    int64
	sendBuf []byte
}

// New builds an NX communicator over every node of sys. Channel setup
// (exports, imports, AU bindings) happens immediately; its CPU cost is
// left pending on each node and flushes when the application starts.
func New(sys *vmmc.System, cfg Config) *Comm {
	if cfg.RingBytes <= 0 {
		cfg.RingBytes = DefaultConfig().RingBytes
	}
	n := len(sys.EPs)
	c := &Comm{sys: sys, cfg: cfg}
	for r := 0; r < n; r++ {
		c.procs = append(c.procs, &Proc{
			comm: c,
			rank: r,
			node: sys.M.Nodes[r],
			ep:   sys.EP(r),
			out:  make([]*ring.Ring, n),
			in:   make([]*ring.Ring, n),
			ps:   make([]parser, n),
			seen: -1,
		})
	}
	rc := ring.Config{Bytes: cfg.RingBytes, Mode: cfg.Mode, Combine: true}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			rg := ring.New(sys.EP(s), sys.EP(d), rc)
			c.procs[s].out[d] = rg
			c.procs[d].in[s] = rg
		}
	}
	return c
}

// Size reports the number of ranks.
func (c *Comm) Size() int { return len(c.procs) }

// Proc returns the library state for one rank.
func (c *Comm) Proc(rank int) *Proc { return c.procs[rank] }

// Rank reports this process's rank.
func (pr *Proc) Rank() int { return pr.rank }

// Size reports the communicator size.
func (pr *Proc) Size() int { return len(pr.comm.procs) }

// Node returns the underlying machine node.
func (pr *Proc) Node() *machine.Node { return pr.node }

// Send transmits data to dst with the given tag (NX csend). The data is
// copied into the channel, so the caller's buffer is immediately
// reusable.
func (pr *Proc) Send(p *sim.Proc, dst, tag int, data []byte) {
	if dst == pr.rank {
		// Local delivery: one copy, no network.
		cp := make([]byte, len(data))
		copy(cp, data)
		pr.node.CPUFor(p).Charge(pr.node.M.Cfg.Cost.CopyTime(len(data)))
		pr.inbox = append(pr.inbox, Msg{Src: pr.rank, Tag: tag, Data: cp})
		return
	}
	need := hdrBytes + len(data)
	if cap(pr.sendBuf) < need {
		pr.sendBuf = make([]byte, need)
	}
	buf := pr.sendBuf[:need]
	binary.LittleEndian.PutUint32(buf[0:], uint32(int32(tag)))
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(data)))
	binary.LittleEndian.PutUint32(buf[8:], uint32(pr.rank))
	binary.LittleEndian.PutUint32(buf[12:], 0x4e58) // "NX" frame check
	copy(buf[hdrBytes:], data)
	pr.out[dst].Write(p, buf)
}

// match reports whether a message satisfies the selectors.
func match(m *Msg, srcSel, tagSel int) bool {
	return (srcSel == Any || m.Src == srcSel) && (tagSel == Any || m.Tag == tagSel)
}

// pump drains every complete message from the incoming channels into
// the inbox, without blocking.
func (pr *Proc) pump(p *sim.Proc) {
	for src, rg := range pr.in {
		if rg == nil {
			continue
		}
		st := &pr.ps[src]
		for {
			if !st.haveHdr {
				if rg.Available(p) < hdrBytes {
					break
				}
				var hdr [hdrBytes]byte
				rg.ReadFull(p, hdr[:])
				st.tag = int(int32(binary.LittleEndian.Uint32(hdr[0:])))
				st.need = int(binary.LittleEndian.Uint32(hdr[4:]))
				if got := int(binary.LittleEndian.Uint32(hdr[8:])); got != src {
					panic(fmt.Sprintf("nx: frame source %d on channel from %d", got, src))
				}
				if binary.LittleEndian.Uint32(hdr[12:]) != 0x4e58 {
					panic("nx: corrupt frame header")
				}
				st.haveHdr = true
				st.data = make([]byte, st.need)
				st.got = 0
			}
			// Stream whatever part of the payload has arrived.
			if st.got < st.need {
				avail := rg.Available(p)
				if avail == 0 {
					break
				}
				chunk := st.need - st.got
				if chunk > avail {
					chunk = avail
				}
				rg.ReadFull(p, st.data[st.got:st.got+chunk])
				st.got += chunk
			}
			if st.got < st.need {
				break
			}
			pr.inbox = append(pr.inbox, Msg{Src: src, Tag: st.tag, Data: st.data})
			st.haveHdr = false
			st.data = nil
		}
	}
}

// Recv blocks until a message matching the selectors arrives and
// returns it (NX crecv). Messages from one source arrive in order;
// selector mismatches are queued, not dropped.
func (pr *Proc) Recv(p *sim.Proc, srcSel, tagSel int) Msg {
	for {
		pr.pump(p)
		for i := range pr.inbox {
			if match(&pr.inbox[i], srcSel, tagSel) {
				m := pr.inbox[i]
				pr.inbox = append(pr.inbox[:i], pr.inbox[i+1:]...)
				return m
			}
		}
		pr.seen = pr.ep.WaitAnyUpdate(p, pr.seen)
	}
}

// Barrier synchronizes all ranks (NX gsync): linear gather to rank 0
// followed by a broadcast release.
func (pr *Proc) Barrier(p *sim.Proc) {
	n := pr.Size()
	if n == 1 {
		return
	}
	if pr.rank == 0 {
		for i := 1; i < n; i++ {
			pr.Recv(p, Any, tagBarrierArrive)
		}
		for i := 1; i < n; i++ {
			pr.Send(p, i, tagBarrierRelease, nil)
		}
	} else {
		pr.Send(p, 0, tagBarrierArrive, nil)
		pr.Recv(p, 0, tagBarrierRelease)
	}
}

// Bcast broadcasts data from root to every rank, returning the payload.
func (pr *Proc) Bcast(p *sim.Proc, root, tag int, data []byte) []byte {
	if pr.rank == root {
		for i := 0; i < pr.Size(); i++ {
			if i != root {
				pr.Send(p, i, tag, data)
			}
		}
		return data
	}
	m := pr.Recv(p, root, tag)
	return m.Data
}

// ReduceFloat64 sums one float64 per rank at root and returns the total
// (valid at root only; other ranks return their contribution).
func (pr *Proc) ReduceFloat64(p *sim.Proc, root, tag int, v float64) float64 {
	var buf [8]byte
	if pr.rank == root {
		total := v
		for i := 0; i < pr.Size(); i++ {
			if i == root {
				continue
			}
			m := pr.Recv(p, Any, tag)
			total += float64frombits(m.Data)
		}
		return total
	}
	binary.LittleEndian.PutUint64(buf[:], float64bits(v))
	pr.Send(p, root, tag, buf[:])
	return v
}

func float64bits(v float64) uint64 { return math.Float64bits(v) }

func float64frombits(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// System returns the underlying VMMC system (for machine access).
func (c *Comm) System() *vmmc.System { return c.sys }
