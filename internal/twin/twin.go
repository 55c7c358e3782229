// Package twin is the analytical twin of the simulated SHRIMP machine:
// a closed-form latency/occupancy model that answers in microseconds
// the questions the discrete-event simulator answers in seconds.
//
// A Model is built from the same machine.Config the simulator is built
// from, so every what-if knob the paper turns (system call per send,
// interrupt per message/packet, combining, FIFO sizing, DU queue
// depth) lands in the closed forms exactly where it lands in the
// device engines. The terms mirror the engines step by step:
//
//   - Mesh transit reproduces mesh.Network.Send's uncontended timing
//     exactly (injection, per-hop router delay, ejection, cut-through
//     serialization) — the unit tests pin it against the mesh oracle.
//   - The deliberate-update term follows the DU engine pipeline
//     (DMA setup, EISA read, link injection) plus the receive engine
//     (RxSetup, EISA write).
//   - The automatic-update term follows the snoop path (AU store,
//     snoop latency, FIFO drain) with combining folded in as packets
//     per byte.
//   - Occupancy terms expose how busy each stage is per unit of
//     offered traffic, which is what the harness's open-loop queueing
//     estimates (harness.LoadCell.Predict) consume.
//
// Everything here is a pure function of the configuration — no clocks,
// no randomness, no state — so the package is classified sim-side for
// the shrimpvet determinism suite even though it never runs under the
// event engine.
package twin

import (
	"shrimp/internal/machine"
	"shrimp/internal/sim"
)

// Model is the closed-form view of one machine configuration.
type Model struct {
	cfg machine.Config
}

// New builds a model of the given machine configuration. The config is
// copied; later mutation of the caller's value does not affect the
// model.
func New(cfg machine.Config) *Model { return &Model{cfg: cfg} }

// Config returns the modeled machine configuration.
func (m *Model) Config() machine.Config { return m.cfg }

// ---- Mesh terms ----------------------------------------------------------

// WireSize is the on-the-wire size of a packet carrying payload bytes.
func (m *Model) WireSize(payload int) int { return payload + m.cfg.NIC.HeaderBytes }

// Serialization is the time wireBytes occupy one mesh link.
func (m *Model) Serialization(wireBytes int) sim.Time {
	return sim.TransferTime(wireBytes, m.cfg.Mesh.LinkBandwidth)
}

// Hops returns the X-Y route length between two nodes of the modeled
// mesh — the same Manhattan distance mesh.Network.Hops computes.
func (m *Model) Hops(src, dst int) int {
	w := m.cfg.Mesh.Width
	return sim.AbsInt(src%w-dst%w) + sim.AbsInt(src/w-dst/w)
}

// MaxHops is the mesh diameter: the longest X-Y route between nodes.
func (m *Model) MaxHops() int {
	n := m.cfg.Nodes
	if n <= 1 {
		return 0
	}
	return m.Hops(0, n-1)
}

// MeanHops is the average route length over all ordered pairs of
// distinct nodes — the hop count a uniformly communicating application
// sees.
func (m *Model) MeanHops() float64 {
	n := m.cfg.Nodes
	if n <= 1 {
		return 0
	}
	total := 0
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				total += m.Hops(s, d)
			}
		}
	}
	return float64(total) / float64(n*(n-1))
}

// MeshTransit is the uncontended delivery time of one packet of
// wireBytes across hops router-to-router hops: injection through the
// transceiver, one router delay per hop, ejection, and the tail's
// cut-through serialization. hops = 0 models the NIC loopback path,
// which skips the backplane (one injection, no ejection). This
// reproduces mesh.Network.Send on an idle mesh exactly.
func (m *Model) MeshTransit(hops, wireBytes int) sim.Time {
	c := &m.cfg.Mesh
	occ := m.Serialization(wireBytes)
	if hops == 0 {
		return c.InjectDelay + occ
	}
	return c.InjectDelay + sim.Time(hops)*c.RouterDelay + c.InjectDelay + occ
}

// ---- NIC terms -----------------------------------------------------------

// EISATime is the host-memory DMA time for b bytes.
func (m *Model) EISATime(b int) sim.Time {
	return sim.TransferTime(b, m.cfg.NIC.EISABandwidth)
}

// LinkTime is the NIC-to-backplane injection time for b bytes.
func (m *Model) LinkTime(b int) sim.Time {
	return sim.TransferTime(b, m.cfg.NIC.LinkBandwidth)
}

// DUPackets is the number of transfers a deliberate-update message of
// payload bytes splits into (MaxTransfer per packet).
func (m *Model) DUPackets(payload int) int {
	max := m.cfg.NIC.MaxTransfer
	if payload <= 0 || max <= 0 {
		return 1
	}
	return (payload + max - 1) / max
}

// SendOverhead is the CPU time one deliberate-update send initiation
// costs the sender: the two-instruction UDMA sequence, plus the kernel
// trap when the system-call-per-send knob is set.
func (m *Model) SendOverhead() sim.Time {
	t := m.cfg.Cost.SendOverheadDU
	if m.cfg.SyscallPerSend {
		t += m.cfg.Cost.SyscallCost
	}
	return t
}

// DUServiceTime is the time one deliberate-update transfer of payload
// bytes occupies the DU engine: DMA setup, the EISA read of the
// payload, and injection of the wire packet into the link. This is the
// engine's occupancy per transfer — the service time its queue sees.
func (m *Model) DUServiceTime(payload int) sim.Time {
	return m.cfg.NIC.DMASetup + m.EISATime(payload) + m.LinkTime(m.WireSize(payload))
}

// DUEngineService is the effective per-transfer occupancy of the DU
// engine under its queue-depth knob: at depth 1 (as built) the CPU
// cannot queue the next request until the current transfer finishes,
// so setup and transfer serialize; at depth >= 2 the engine pipelines
// the next transfer's DMA setup against the current transfer, so
// throughput is bounded by the slower of the two stages.
func (m *Model) DUEngineService(payload int) sim.Time {
	full := m.DUServiceTime(payload)
	if m.cfg.NIC.DUQueueDepth <= 1 {
		return full
	}
	xfer := m.EISATime(payload) + m.LinkTime(m.WireSize(payload))
	if m.cfg.NIC.DMASetup > xfer {
		return m.cfg.NIC.DMASetup
	}
	return xfer
}

// FIFOStall estimates the flow-control overhead an automatic-update
// stream of n bytes suffers from a bounded outgoing FIFO (§4.5.2):
// every time occupancy crosses the threshold the NIC interrupts the
// host and AU stores stall until the FIFO drains to the low-water
// mark. The episode count scales inversely with the threshold window;
// the as-built 32 KB FIFO makes the term negligible, the 256-byte
// what-if makes it dominant — matching the paper's Figure direction.
func (m *Model) FIFOStall(n int) sim.Time {
	c := &m.cfg.NIC
	window := c.FIFOThresholdBytes
	if window <= 0 || n <= 0 {
		return 0
	}
	// A FIFO that holds several combined packets absorbs the store
	// stream: the drain engine (188+ MB/s on the wire) outruns the
	// write-through store path (~18 MB/s), so occupancy never reaches
	// the threshold and the as-built 32 KB FIFO costs nothing. Only
	// when the threshold window shrinks to a handful of packets do the
	// flow-control interrupts fire.
	if window >= 4*m.AUPacketBytes() {
		return 0
	}
	episodes := float64(n) / float64(window)
	stall := m.cfg.NIC.InterruptStall
	if stall == 0 {
		stall = m.cfg.Cost.InterruptCost
	}
	drain := c.FIFOThresholdBytes - c.FIFOLowWaterBytes
	if drain < 0 {
		drain = 0
	}
	per := float64(stall) + float64(m.LinkTime(drain))
	return sim.Time(episodes * per)
}

// RxService is the receive engine's handling of one packet of payload
// bytes: per-packet setup plus the EISA write into host memory.
func (m *Model) RxService(payload int) sim.Time {
	return m.cfg.NIC.RxSetup + m.EISATime(payload)
}

// DUMessage is the end-to-end user-to-user latency of one
// deliberate-update message of payload bytes across hops hops,
// uncontended: sender CPU initiation, the DU engine pipeline per
// packet, mesh transit, and the receive engine landing the payload.
// Multi-packet messages pay the engine service per packet but overlap
// transit with the pipeline, so only the last packet's transit and
// receive tail add in.
func (m *Model) DUMessage(hops, payload int) sim.Time {
	pkts := m.DUPackets(payload)
	last := payload - (pkts-1)*m.cfg.NIC.MaxTransfer
	t := m.SendOverhead()
	if pkts == 1 {
		return t + m.DUServiceTime(payload) +
			m.MeshTransit(hops, m.WireSize(payload)) + m.RxService(payload)
	}
	full := m.cfg.NIC.MaxTransfer
	t += sim.Time(pkts-1)*m.DUServiceTime(full) + m.DUServiceTime(last)
	return t + m.MeshTransit(hops, m.WireSize(last)) + m.RxService(last)
}

// AUWord is the end-to-end latency of one uncombined automatic-update
// word across hops hops: the write-through store, the snoop path into
// the outgoing FIFO, the FIFO drain injecting the wire packet, mesh
// transit, and the receive engine landing the word.
func (m *Model) AUWord(hops int) sim.Time {
	w := m.cfg.NIC.AUWordBytes
	return m.cfg.Cost.AUStoreCost + m.cfg.NIC.SnoopLatency +
		m.LinkTime(m.WireSize(w)) +
		m.MeshTransit(hops, m.WireSize(w)) + m.RxService(w)
}

// AUPacketBytes is the payload of one automatic-update packet: with
// combining on, consecutive stores coalesce up to the combine limit;
// off, every AUWordBytes store is its own packet.
func (m *Model) AUPacketBytes() int {
	c := &m.cfg.NIC
	if c.Combining && c.CombineLimit > 0 {
		return c.CombineLimit
	}
	return c.AUWordBytes
}

// AUStreamTime is the time a bulk automatic-update stream of n bytes
// needs to drain through the sender: the write-through stores
// themselves plus the per-packet FIFO/link overheads at the stream's
// packet rate. The store path and the drain engine overlap, so the
// slower of the two bounds the stream.
func (m *Model) AUStreamTime(n int) sim.Time {
	c := &m.cfg.NIC
	words := (n + c.AUWordBytes - 1) / c.AUWordBytes
	stores := sim.Time(words) * m.cfg.Cost.AUStoreCost
	payload := m.AUPacketBytes()
	pkts := float64(n) / float64(payload)
	drain := sim.Time(pkts * float64(m.LinkTime(m.WireSize(payload))))
	if stores > drain {
		return stores
	}
	return drain
}

// InterruptPenaltyPerMessage is the receiver-side kernel time added to
// every arriving message by the interrupt knobs (§4.4): zero as built,
// one interrupt per message, or one per packet (pktsPerMsg packets).
func (m *Model) InterruptPenaltyPerMessage(pktsPerMsg float64) sim.Time {
	c := &m.cfg.NIC
	stall := c.InterruptStall
	if stall == 0 {
		stall = m.cfg.Cost.InterruptCost
	}
	switch {
	case c.InterruptPerPacket:
		return sim.Time(float64(stall) * pktsPerMsg)
	case c.InterruptPerMessage:
		return stall
	default:
		return 0
	}
}

// Notification is the user-level notification dispatch cost (§2.2).
func (m *Model) Notification() sim.Time { return m.cfg.Cost.NotifyDispatchCost }

// ---- Synchronization terms -----------------------------------------------

// Barrier is the closed-form cost of one all-to-all flag barrier over n
// nodes, the synchronization idiom the applications use: every rank
// deliberate-updates a small flag to every peer (n-1 sends back to
// back, pipelined through the DU engine) and then polls for the n-1
// arrivals. The last flag to land — one engine's full queue plus the
// diameter transit — bounds the episode.
func (m *Model) Barrier(n int) sim.Time {
	if n <= 1 {
		return 0
	}
	flag := 4 // one flag word
	queue := sim.Time(n-1) * m.DUServiceTime(flag)
	return m.SendOverhead() + queue +
		m.MeshTransit(m.MaxHops(), m.WireSize(flag)) + m.RxService(flag)
}

// Lock is the closed-form cost of one uncontended distributed lock
// acquire/release round trip across hops hops.
func (m *Model) Lock(hops int) sim.Time {
	return 2 * m.DUMessage(hops, 4)
}

// ---- SVM terms -----------------------------------------------------------

// PageFault is the cost of one SVM page miss: the protection trap plus
// fetching a page from its home across hops hops.
func (m *Model) PageFault(hops, pageBytes int) sim.Time {
	return m.cfg.Cost.PageFaultCost + m.DUMessage(hops, 64) +
		m.DUMessage(hops, pageBytes)
}

// DiffCost is the cost of creating or applying an SVM diff of n words.
func (m *Model) DiffCost(words int) sim.Time {
	return sim.Time(words) * m.cfg.Cost.DiffWordCost
}
