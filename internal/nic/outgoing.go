package nic

import (
	"fmt"

	"shrimp/internal/memory"
	"shrimp/internal/mesh"
	"shrimp/internal/sim"
	"shrimp/internal/trace"
)

// SendDU initiates a deliberate-update transfer via the user-level DMA
// mechanism: size bytes starting at local address src are sent to the
// remote page mapped by the proxy address. Neither side of the transfer
// may cross a page boundary (the protection scheme's fundamental
// restriction, §4.5.3); higher layers split large transfers.
//
// The call blocks only while the NIC's transfer-request queue is full
// (depth Config.DUQueueDepth); it returns as soon as the request is
// accepted, making sends asynchronous. The caller is responsible for
// charging the CPU-side initiation overhead.
//
//shrimp:hotpath
func (n *NIC) SendDU(p *sim.Proc, src, proxy memory.Addr, size int, interrupt, endOfMsg bool) {
	for !n.TrySendDU(src, proxy, size, interrupt, endOfMsg) {
		n.duCond.Wait(p)
	}
}

// TrySendDU is SendDU without its wait: it queues the transfer and
// reports true when a request slot is free, and reports false, with
// nothing queued, when SendDU would wait on DUCond. A transfer that is
// malformed panics either way.
//
//shrimp:hotpath
func (n *NIC) TrySendDU(src, proxy memory.Addr, size int, interrupt, endOfMsg bool) bool {
	if size <= 0 || size > n.cfg.MaxTransfer {
		panic(fmt.Sprintf("nic: DU transfer size %d out of range", size))
	}
	if src.Offset()+size > memory.PageSize {
		panic(fmt.Sprintf("nic: DU source %#x+%d crosses a page boundary", src, size))
	}
	if proxy.Offset()+size > memory.PageSize {
		panic(fmt.Sprintf("nic: DU destination %#x+%d crosses a page boundary", proxy, size))
	}
	ent, ok := n.Outgoing(proxy.VPN())
	if !ok {
		panic(fmt.Sprintf("nic: DU through unmapped proxy page %d", proxy.VPN()))
	}
	if n.duSlots >= n.cfg.DUQueueDepth {
		return false
	}
	n.duSlots++
	req := n.allocDU()
	req.src = src
	req.dstNode = ent.DstNode
	req.dstPage = ent.DstPage
	req.dstOffset = proxy.Offset()
	req.size = size
	req.interrupt = interrupt
	req.endOfMsg = endOfMsg
	n.duQueue.Push(req)
	if n.tr != nil {
		n.tr.Record(int64(n.e.Now()), trace.KDUQueue, int32(n.id), int64(n.duSlots), 0)
	}
	n.acct.Counters.DUTransfers++
	if endOfMsg {
		n.acct.Counters.MessagesSent++
	}
	n.acct.Counters.BytesSent += int64(size)
	return true
}

// WaitDUIdle blocks until the DU engine has drained all requests.
func (n *NIC) WaitDUIdle(p *sim.Proc) {
	for n.DUBusy() {
		n.duCond.Wait(p)
	}
}

// DUBusy reports whether the DU engine holds requests: the condition
// WaitDUIdle waits out.
func (n *NIC) DUBusy() bool { return n.duSlots > 0 }

// DUCond is the condition SendDU and WaitDUIdle wait on: the DU engine
// broadcasts it each time a request slot frees. A step that cannot
// queue a transfer holds its process on it (Cond.Hold).
func (n *NIC) DUCond() *sim.Cond { return n.duCond }

// The deliberate-update DMA engine pops transfer requests, arbitrates
// for the memory bus (which cannot cycle-share with the CPU), reads the
// payload over the EISA bus, and injects a packet.
//
// Like the receive engine it is a continuation state machine: the steps
// below execute as inline fn events with the engine parked on duQueue
// between requests, scheduling each delay and bus wait at exactly the
// calendar position the former blocking loop produced.
const (
	duSetup  = iota // traced start marker + DMA setup latency
	duRead          // build the packet, arbitrate for the memory bus
	duXfer          // EISA transfer time (bus held)
	duInject        // payload read; free slot; arbitrate for NIC port
	duLink          // link serialization time (port held)
	duSend          // hand the packet to the mesh, release the port
	duNext          // pump duQueue: next request inline, or park
)

// duStep dispatches the DU engine's steps by index — the single bound
// method its sequencer needs (sim.Seq.Init).
//
//shrimp:hotpath
func (n *NIC) duStep(pc int) sim.Ctl {
	switch pc {
	case duSetup:
		return n.duStepSetup()
	case duRead:
		return n.duStepRead()
	case duXfer:
		return n.duStepXfer()
	case duInject:
		return n.duStepInject()
	case duLink:
		return n.duStepLink()
	case duSend:
		return n.duStepSend()
	default:
		return n.duStepNext()
	}
}

// duBegin is the duQueue delivery callback: it accepts one transfer
// request and starts the DMA pipeline.
//
//shrimp:hotpath
func (n *NIC) duBegin(req *duRequest) {
	n.duReq = req
	n.duSeq.Start(duSetup)
}

//shrimp:hotpath
func (n *NIC) duStepSetup() sim.Ctl {
	if n.tr != nil {
		n.duStart = n.e.Now()
		n.tr.Record(int64(n.duStart), trace.KDUStart, int32(n.id), int64(n.duReq.size), int64(n.duReq.dstNode))
	}
	return n.duSeq.Sleep(n.cfg.DMASetup)
}

//shrimp:hotpath
func (n *NIC) duStepRead() sim.Ctl {
	req := n.duReq
	pkt := n.allocPacket(req.size)
	pkt.Kind = DU
	pkt.Src = n.id
	pkt.DstPage = req.dstPage
	pkt.DstOffset = req.dstOffset
	pkt.Interrupt = req.interrupt
	pkt.EndOfMsg = req.endOfMsg
	pkt.Data = grow(pkt.Data, req.size)
	n.duPkt = pkt
	return n.duSeq.Acquire(n.bus) // continue at duXfer holding the bus
}

//shrimp:hotpath
func (n *NIC) duStepXfer() sim.Ctl { return n.duSeq.Sleep(n.eisaTime(n.duReq.size)) }

// duStepInject completes the host-memory read and starts injection. The
// request slot frees once the data has left host memory.
//
//shrimp:hotpath
func (n *NIC) duStepInject() sim.Ctl {
	req := n.duReq
	pkt := n.duPkt
	n.mem.DMARead(req.src, pkt.Data)
	n.bus.Release()
	n.duSlots--
	n.duCond.Broadcast()
	n.duDst = req.dstNode
	n.releaseDU(req)
	n.duReq = nil
	if n.tr != nil {
		pkt.sent = n.duStart + 1
		n.tr.Record(int64(n.e.Now()), trace.KDUQueue, int32(n.id), int64(n.duSlots), 0)
	}
	return n.duSeq.Acquire(n.nicPort)
}

//shrimp:hotpath
func (n *NIC) duStepLink() sim.Ctl {
	return n.duSeq.Sleep(n.linkTime(n.wireSize(len(n.duPkt.Data))))
}

//shrimp:hotpath
func (n *NIC) duStepSend() sim.Ctl {
	pkt := n.duPkt
	mp := n.net.Acquire()
	mp.Src = n.id
	mp.Dst = n.duDst
	mp.Size = n.wireSize(len(pkt.Data))
	mp.Payload = pkt
	n.net.Send(mp)
	n.nicPort.Release()
	if n.tr != nil {
		n.tr.Record(int64(n.e.Now()), trace.KDUEnd, int32(n.id), int64(pkt.DstPage), int64(n.duDst))
	}
	n.duPkt = nil
	return n.duSeq.Next()
}

//shrimp:hotpath
func (n *NIC) duStepNext() sim.Ctl {
	if req, ok := n.duQueue.TryPop(); ok {
		n.duReq = req
		return n.duSeq.Goto(duSetup)
	}
	n.duQueue.PopFn(n.duRecvFn)
	return sim.Wait
}

// grow resizes buf to n bytes, reusing its backing array when possible.
func grow(buf []byte, n int) []byte {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]byte, n)
}

// Snoop observes a CPU store to local memory (wired to the address
// space's snoop hook by the machine layer). It runs synchronously at the
// store instant and never blocks: flow-control stalls are enforced
// before the store by WaitAUReady.
//
// The snoop hardware sees individual bus transactions: a contiguous
// run of bytes arrives as a sequence of word-sized stores, each handled
// as auStore would handle it alone. The words that append to the
// combining buffer are copied in one pass, each still leaving its own
// combine-hit record, and the combining timer is re-keyed once, when
// the run ends, rather than per word: no event runs and no other event
// is filed between two appends (every packet a snoop emits follows a
// flushCombine, which cancels the timer), so the timer lands at the
// same instant and calendar position either way.
//
//shrimp:hotpath
func (n *NIC) Snoop(addr memory.Addr, size int) {
	if !n.cfg.AutomaticUpdate {
		return
	}
	vpn := addr.VPN()
	ent, ok := n.Outgoing(vpn)
	if !ok || !ent.AUEnable {
		return // snooped, but not AU-bound: ignored
	}
	// Words are handed on as views into the page itself, copied (into
	// the combining buffer or a packet buffer) before Snoop returns, so
	// no intermediate copy is allocated.
	page := n.mem.PageData(vpn)
	off := addr.Offset()
	word := n.cfg.AUWordBytes
	c := &n.combine
	for size > 0 {
		w := min(word, size)
		if !n.combines(vpn, ent, off, w) {
			n.acct.Counters.AUStores++
			n.auStore(vpn, ent, off, page[off:off+w])
		} else {
			// Every later word that fits appends too: only the last
			// word of the run can be partial, so a run longer than the
			// room left takes whole words.
			room := n.cfg.CombineLimit - len(c.buf)
			if w = size; w > room {
				w = room - room%word
			}
			n.acct.Counters.AUStores += int64((w + word - 1) / word)
			prev := len(c.buf)
			c.buf = append(c.buf, page[off:off+w]...)
			if n.tr != nil {
				for i := 0; i < w; i += word {
					n.tr.Record(int64(n.e.Now()), trace.KCombineHit, int32(n.id), int64(prev+min(i+word, w)), 0)
				}
			}
		}
		off += w
		size -= w
	}
	if c.rekey {
		c.rekey = false
		c.timer.Reset(n.cfg.CombineTimeout)
	}
}

// combines reports whether a snooped w-byte store at off on page vpn
// appends to the combining buffer: a consecutive store under an
// unchanged mapping that stays within CombineLimit. If so, it marks
// the combining timer for its re-key at the end of the snoop.
//
//shrimp:hotpath
func (n *NIC) combines(vpn int, ent *OPTEntry, off, w int) bool {
	c := &n.combine
	if !c.active || !n.cfg.Combining || !ent.Combine || c.page != vpn || c.ent != *ent ||
		c.start+len(c.buf) != off || len(c.buf)+w > n.cfg.CombineLimit {
		return false
	}
	c.rekey = true
	return true
}

// auStore handles one snooped word-sized store to an AU-bound page that
// does not append to the combining buffer: it flushes the buffer and
// either sends the word alone or starts a new combined packet with it.
// data is a transient view; it must be consumed before returning.
//
//shrimp:hotpath
func (n *NIC) auStore(vpn int, ent *OPTEntry, off int, data []byte) {
	n.flushCombine()
	if !n.cfg.Combining || !ent.Combine {
		// A non-combinable store must not overtake earlier combined
		// stores: the snoop path preserves program order.
		n.emitAU(ent.DstNode, ent.DstPage, off, ent.Interrupt, data)
		return
	}
	c := &n.combine
	c.active = true
	c.ent = *ent
	c.page = vpn
	c.start = off
	c.buf = append(c.buf[:0], data...)
	c.timer = n.e.NewTimer(n.cfg.CombineTimeout, n.flushFn)
}

// flushCombine emits the pending combined AU packet, if any.
//
//shrimp:hotpath
func (n *NIC) flushCombine() {
	c := &n.combine
	if !c.active {
		return
	}
	c.timer.Cancel()
	c.timer = sim.Timer{}
	c.active = false
	c.rekey = false
	if n.tr != nil {
		n.tr.Record(int64(n.e.Now()), trace.KCombineFlush, int32(n.id), int64(len(c.buf)), 0)
	}
	n.emitAU(c.ent.DstNode, c.ent.DstPage, c.start, c.ent.Interrupt, c.buf)
	c.buf = c.buf[:0]
}

// emitAU creates an automatic-update packet carrying a copy of data.
// The packet reaches the outgoing FIFO after the snoop path's
// board-crossing latency (memory-bus board to EISA-bus board to OPT
// lookup to packetizer).
//
//shrimp:hotpath
func (n *NIC) emitAU(dst mesh.NodeID, dstPage, off int, interrupt bool, data []byte) {
	pkt := n.allocPacket(len(data))
	pkt.Kind = AU
	pkt.Src = n.id
	pkt.DstPage = dstPage
	pkt.DstOffset = off
	pkt.Interrupt = interrupt
	pkt.EndOfMsg = false
	pkt.Data = append(pkt.Data[:0], data...)
	pkt.fifoDst = dst
	if n.tr != nil {
		pkt.sent = n.e.Now() + 1
	}
	n.outAU++
	n.acct.Counters.AUPackets++
	n.acct.Counters.BytesSent += int64(len(data))
	n.e.After(n.cfg.SnoopLatency, pkt.fifoFn)
}

// fifoArrive enqueues an AU packet into the outgoing FIFO and applies
// the threshold flow-control rule.
//
//shrimp:hotpath
func (n *NIC) fifoArrive(pkt *Packet, dst mesh.NodeID) {
	wire := n.wireSize(len(pkt.Data))
	n.fifoBytes += wire
	if n.fifoBytes > n.fifoHigh {
		n.fifoHigh = n.fifoBytes
	}
	if n.tr != nil {
		n.tr.Record(int64(n.e.Now()), trace.KFIFOEnq, int32(n.id), int64(n.fifoBytes), int64(wire))
	}
	n.fifoPush(pkt, dst)
	if !n.stalled && n.fifoBytes > n.cfg.FIFOThresholdBytes {
		n.stalled = true
		n.acct.Counters.FlowStalls++
		if n.RaiseInterrupt != nil {
			n.RaiseInterrupt(IntFlowControl, pkt)
		}
	}
}

// fifoEntry pairs a packet with its destination for the drain engine.
type fifoEntry struct {
	pkt *Packet
	dst mesh.NodeID
}

//shrimp:hotpath
func (n *NIC) fifoPush(pkt *Packet, dst mesh.NodeID) {
	n.fifo.Push(fifoEntry{pkt: pkt, dst: dst})
}

// WaitAUReady blocks the calling process while AU stores are disabled by
// flow control. The machine layer calls it before every AU-bound store.
func (n *NIC) WaitAUReady(p *sim.Proc) {
	for n.stalled {
		n.fifoCond.Wait(p)
	}
}

// AUStalled reports whether flow control disables AU stores: the
// condition WaitAUReady blocks on.
func (n *NIC) AUStalled() bool { return n.stalled }

// FenceAU flushes the combining buffer and blocks until every emitted AU
// packet has been injected into the network. Because the mesh delivers
// same source/destination traffic in order, a deliberate-update message
// sent after FenceAU returns cannot overtake prior automatic updates to
// the same node. This models the software ordering workaround for the
// hardware's lack of a DU-after-AU ordering guarantee (§4.2).
func (n *NIC) FenceAU(p *sim.Proc) {
	n.flushCombine()
	for n.outAU > 0 {
		n.fenceCond.Wait(p)
	}
}

// The outgoing-FIFO drain engine injects queued AU packets into the
// backplane. Draining contends with packet reception for the NIC port,
// so the FIFO cannot drain while a packet is arriving — the effect
// §4.5.2 identifies. It too is a continuation state machine parked on
// the FIFO between packets.
const (
	outPort = iota // arbitrate for the NIC port
	outLink        // link serialization time (port held)
	outSend        // hand to the mesh; flow-control bookkeeping
	outNext        // pump the FIFO: next packet inline, or park
)

// outStep dispatches the outgoing-FIFO drain's steps by index — the
// single bound method its sequencer needs (sim.Seq.Init).
//
//shrimp:hotpath
func (n *NIC) outStep(pc int) sim.Ctl {
	switch pc {
	case outPort:
		return n.outStepPort()
	case outLink:
		return n.outStepLink()
	case outSend:
		return n.outStepSend()
	default:
		return n.outStepNext()
	}
}

// outBegin is the FIFO delivery callback: it accepts one queued packet
// and starts the injection pipeline.
//
//shrimp:hotpath
func (n *NIC) outBegin(e fifoEntry) {
	n.outPkt, n.outDst = e.pkt, e.dst
	n.outSeq.Start(outPort)
}

//shrimp:hotpath
func (n *NIC) outStepPort() sim.Ctl { return n.outSeq.Acquire(n.nicPort) }

//shrimp:hotpath
func (n *NIC) outStepLink() sim.Ctl {
	return n.outSeq.Sleep(n.linkTime(n.wireSize(len(n.outPkt.Data))))
}

//shrimp:hotpath
func (n *NIC) outStepSend() sim.Ctl {
	pkt := n.outPkt
	wire := n.wireSize(len(pkt.Data))
	mp := n.net.Acquire()
	mp.Src = n.id
	mp.Dst = n.outDst
	mp.Size = wire
	mp.Payload = pkt
	n.net.Send(mp)
	n.nicPort.Release()
	n.fifoBytes -= wire
	if n.tr != nil {
		n.tr.Record(int64(n.e.Now()), trace.KFIFODrain, int32(n.id), int64(n.fifoBytes), 0)
	}
	if n.stalled && n.fifoBytes <= n.cfg.FIFOLowWaterBytes {
		n.stalled = false
		n.fifoCond.Broadcast()
	}
	n.outAU--
	if n.outAU == 0 {
		n.fenceCond.Broadcast()
	}
	n.outPkt = nil
	return n.outSeq.Next()
}

//shrimp:hotpath
func (n *NIC) outStepNext() sim.Ctl {
	if e, ok := n.fifo.TryPop(); ok {
		n.outPkt, n.outDst = e.pkt, e.dst
		return n.outSeq.Goto(outPort)
	}
	n.fifo.PopFn(n.outRecvFn)
	return sim.Wait
}
