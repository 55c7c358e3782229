// Package ring provides a one-directional, flow-controlled byte stream
// between two nodes over VMMC — the building block both the NX
// message-passing library and the stream-sockets library are assembled
// from, mirroring how SHRIMP's communication libraries layered over the
// VMMC primitives.
//
// The receiver exports a data ring plus a control word holding the
// cumulative writer position; the sender publishes data (by deliberate
// update, or by automatic update through a bound mirror) and then the
// position word, relying on VMMC's same-flow FIFO delivery so the
// position never overtakes its data. Credits flow back on a second,
// tiny export owned by the sender.
package ring

import (
	"fmt"

	"shrimp/internal/memory"
	"shrimp/internal/sim"
	"shrimp/internal/vmmc"
)

// Mode selects the bulk-transfer mechanism (§4.2 of the paper).
type Mode int

const (
	// DU moves data with deliberate-update user-level DMA.
	DU Mode = iota
	// AU moves data by storing through an automatic-update binding.
	AU
)

func (m Mode) String() string {
	if m == DU {
		return "DU"
	}
	return "AU"
}

// Config describes one ring.
type Config struct {
	// Bytes is the data capacity; rounded up to whole pages.
	Bytes int
	// Mode selects deliberate vs automatic update for data transfer.
	Mode Mode
	// Combine enables AU combining on the binding (AU mode only).
	Combine bool
	// Notify requests a receiver notification per published message
	// (used by request channels serviced by handlers rather than polls).
	Notify bool
}

// Ring is a sender->receiver byte stream. Write-side methods must be
// called from the sending node's process, read-side methods from the
// receiving node's process.
type Ring struct {
	cfg  Config
	size int

	sndEP *vmmc.Endpoint
	rcvEP *vmmc.Endpoint

	// Receiver side.
	dataExp    *vmmc.Export
	creditImp  *vmmc.Import
	readPos    uint64
	uncredited int

	// Sender side.
	dataImp   *vmmc.Import
	creditExp *vmmc.Export
	mirror    memory.Addr
	writePos  uint64
	credit    uint64 // last credit value read
	published uint64 // DU position updates sent; picks the staging word

	scratch memory.Addr // receiver-side staging word for credit DMA
	// readable is the bound hasData, made once for WaitReadable.
	readable func(p *sim.Proc) bool
	// writes is the freelist of idle Write calls.
	writes []*writeRun
}

// ctlOffset is where the writer-position word lives, just past the data.
func (r *Ring) ctlOffset() int { return r.size }

// ctlWords is the number of position words the mirror's control page
// stages in DU mode (see writeRun.publish).
const ctlWords = memory.PageSize / 8

// New builds a ring from sender endpoint snd to receiver endpoint rcv.
// It may be called outside process context (setup time); the setup cost
// is charged to both nodes' pending CPU time.
func New(snd, rcv *vmmc.Endpoint, cfg Config) *Ring {
	if cfg.Bytes <= 0 {
		panic("ring: non-positive capacity")
	}
	pages := (cfg.Bytes + memory.PageSize - 1) / memory.PageSize
	r := &Ring{cfg: cfg, size: pages * memory.PageSize, sndEP: snd, rcvEP: rcv}
	r.readable = r.hasData

	// Receiver: data pages + 1 control page; sender imports it.
	r.dataExp = rcv.Export(nil, pages+1)
	r.dataImp = snd.Import(nil, r.dataExp)
	// Sender: credit word export; receiver imports it.
	r.creditExp = snd.Export(nil, 1)
	r.creditImp = rcv.Import(nil, r.creditExp)

	// Sender-local mirror of the ring: the gather staging area in DU
	// mode, the AU-bound image in AU mode. The control page's binding
	// carries the interrupt-request bit: position updates mark message
	// boundaries, so the per-message-interrupt what-if (§4.4) sees AU
	// streams too.
	r.mirror = snd.Node.Mem.Alloc(pages + 1)
	if cfg.Mode == AU {
		r.dataImp.BindAU(nil, r.mirror, 0, pages, cfg.Combine, cfg.Notify)
		r.dataImp.BindAU(nil, r.mirror+memory.Addr(pages*memory.PageSize),
			pages, 1, false, true)
	}
	return r
}

// Size reports the ring's data capacity in bytes.
func (r *Ring) Size() int { return r.size }

// Mode reports the ring's transfer mode.
func (r *Ring) Mode() Mode { return r.cfg.Mode }

// space reports bytes the sender may write without overrunning.
func (r *Ring) space() int { return r.size - int(r.writePos-r.credit) }

// refreshCredit re-reads the credit word published by the receiver.
func (r *Ring) refreshCredit(p *sim.Proc) {
	nd := r.sndEP.Node
	v := nd.Mem.ReadUint64(p, r.creditExp.Base)
	nd.CPUFor(p).Charge(nd.M.Cfg.Cost.LoadCost)
	if v > r.credit {
		r.credit = v
	}
}

// Write appends data to the stream, blocking for credit as needed. The
// data is published as one user-level message (plus an internal
// position update).
//
// In DU mode the transfers' flushes sleep, and their waits for a DU
// request slot park, the writer in steps that run the Write on inline
// at each wakeup, so the writer resumes once per Write unless it runs
// out of credit.
func (r *Ring) Write(p *sim.Proc, data []byte) {
	var w *writeRun
	if n := len(r.writes); n > 0 {
		w = r.writes[n-1]
		r.writes[n-1] = nil
		r.writes = r.writes[:n-1]
	} else {
		w = &writeRun{r: r}
		w.step = w.advance
	}
	w.p, w.data, w.at = p, data, writeCredit
	w.finish()
	w.p, w.data = nil, nil
	r.writes = append(r.writes, w)
}

// Where a Write stands.
const (
	writeCredit  = iota // loop head: refresh the credit, check for space
	writeCopy           // move the next chunk into the remote ring
	writeData           // the chunk's DU transfer is queuing
	writePublish        // publish the writer position
	writePos            // the position update's DU transfer is queuing
	writeStalled        // out of credit, with what was written published
	writeDone
)

// writeRun is one Write call in progress. Idle runs wait on the ring's
// freelist, each with its step bound once.
type writeRun struct {
	r     *Ring
	p     *sim.Proc
	data  []byte // bytes not yet moved
	chunk int    // the chunk being transferred
	final bool   // the position being published is the message trailer
	at    int
	t     vmmc.Transfer
	step  func() (sim.Time, sim.Verdict)
}

// finish drives the Write to its end on the process, which parks in
// the step through each flush and each wait for a DU request slot, and
// makes the AU stores and waits for credit itself.
func (w *writeRun) finish() {
	r := w.r
	for {
		d, v := w.advance()
		w.p.Park(d, v, w.step)
		switch w.at {
		case writeDone:
			return
		case writeCopy:
			// AU mode: the stores themselves are the transfer.
			r.sndEP.Node.StoreBytes(w.p, r.mirror+memory.Addr(int(r.writePos)%r.size), w.data[:w.chunk])
			w.moved()
		case writePublish:
			w.publishAU()
		default:
			var seen int64
			for r.space() == 0 {
				seen = r.creditExp.WaitUpdate(w.p, seen)
				r.refreshCredit(w.p)
			}
			w.at = writeCopy
		}
	}
}

// advance runs the Write from where it stands until it is done or
// stalled for credit (Resume), a DU transfer's flush must sleep
// (Again), or a DU transfer or the position rotation must hold the
// process on the NIC's DUCond (Held). It is the writer's step. In AU
// mode the stores are the transfer, which may park: it stops before
// each chunk's stores and before the position's store (Resume at
// writeCopy or writePublish), and finish makes them.
func (w *writeRun) advance() (sim.Time, sim.Verdict) {
	r := w.r
	nd := r.sndEP.Node
	for {
		switch w.at {
		case writeCredit:
			if len(w.data) == 0 {
				w.final, w.at = true, writePublish
				continue
			}
			r.refreshCredit(w.p)
			w.at = writeCopy
			if r.space() == 0 {
				// Publish what we have so the receiver can drain, then
				// wait for credit.
				w.final, w.at = false, writePublish
			}
		case writeCopy:
			off := int(r.writePos) % r.size
			w.chunk = min(len(w.data), r.space(), r.size-off)
			if r.cfg.Mode == AU {
				return 0, sim.Resume
			}
			dst := r.mirror + memory.Addr(off)
			// Zero-copy send path: user-level DMA straight from the send
			// buffer — the transfer model VMMC was designed for (the
			// mirror write is simulator bookkeeping, not a charged copy).
			nd.Mem.Write(w.p, dst, w.data[:w.chunk])
			w.t.Start(r.dataImp, w.p, dst, off, w.chunk, vmmc.SendOpts{Internal: true})
			w.at = writeData
		case writeData:
			if d, v := w.t.Advance(); v != sim.Resume {
				return d, v
			}
			w.moved()
		case writePublish:
			if r.cfg.Mode == AU {
				return 0, sim.Resume
			}
			if d, v := w.publish(); v != sim.Resume {
				return d, v
			}
		case writePos:
			if d, v := w.t.Advance(); v != sim.Resume {
				return d, v
			}
			w.published()
		default:
			return 0, sim.Resume
		}
	}
}

// moved accounts the chunk just transferred.
func (w *writeRun) moved() {
	w.r.writePos += uint64(w.chunk)
	w.data = w.data[w.chunk:]
	w.at = writeCredit
}

// publish makes all written bytes visible to the receiver, in DU mode
// (publishAU is AU mode's). A final publish is the user-message
// trailer; intermediate publishes (made while blocked for credit) are
// internal bookkeeping.
func (w *writeRun) publish() (sim.Time, sim.Verdict) {
	r := w.r
	nd := r.sndEP.Node
	ctl := r.mirror + memory.Addr(r.ctlOffset())
	// Each update is staged in its own word of the control page. The
	// DU engine reads a transfer's source when it starts the transfer,
	// not when the request is queued, so behind a queue deeper than one
	// an update still waiting must not read a later position: that
	// would publish data still queued behind it. Rotating over the page
	// keeps a staged word intact while up to ctlWords-1 transfers are
	// queued after it; a deeper queue drains before the rotation wraps
	// (not on the first update, when no earlier word is staged).
	slot := r.published % ctlWords
	if slot == 0 && r.published > 0 && nd.NIC.Config().DUQueueDepth >= ctlWords && nd.NIC.DUBusy() {
		nd.NIC.DUCond().Hold(w.p)
		return 0, sim.Held
	}
	r.published++
	ctl += memory.Addr(8 * slot)
	nd.Mem.WriteUint64(w.p, ctl, r.writePos)
	// The position update is the message trailer: it carries the
	// user-message boundary and the optional notification bit.
	w.t.Start(r.dataImp, w.p, ctl, r.ctlOffset(), 8,
		vmmc.SendOpts{Notify: r.cfg.Notify && w.final, Internal: !w.final})
	w.at = writePos
	return 0, sim.Resume
}

// publishAU is publish in AU mode, where the position's store is the
// update. It may park, so the process makes it.
func (w *writeRun) publishAU() {
	r := w.r
	nd := r.sndEP.Node
	nd.StoreUint64(w.p, r.mirror+memory.Addr(r.ctlOffset()), r.writePos)
	if w.final {
		// AU streams count messages in the library (the NIC only sees
		// snooped stores), and a kernel-mediated design would trap here
		// just the same (§4.3).
		nd.Acct.Counters.MessagesSent++
		if nd.M.Cfg.SyscallPerSend {
			nd.CPUFor(w.p).ChargeOverhead(nd.M.Cfg.Cost.SyscallCost)
			nd.Acct.Counters.Syscalls++
		}
	}
	w.published()
}

// published ends a position update: the Write is done after the
// trailer, and stalled for credit after an intermediate one.
func (w *writeRun) published() {
	w.at = writeStalled
	if w.final {
		w.at = writeDone
	}
}

// available reports unread bytes at the receiver.
func (r *Ring) available(p *sim.Proc) int {
	nd := r.rcvEP.Node
	nd.CPUFor(p).Charge(nd.M.Cfg.Cost.LoadCost)
	w := nd.Mem.ReadUint64(p, r.dataExp.Base+memory.Addr(r.ctlOffset()))
	return int(w - r.readPos)
}

// Available reports how many bytes Read would return without blocking.
func (r *Ring) Available(p *sim.Proc) int { return r.available(p) }

// WaitReadable blocks until at least one byte is available.
func (r *Ring) WaitReadable(p *sim.Proc) { r.dataExp.WaitFor(p, -1, r.readable) }

// hasData is WaitReadable's ready test, bound once into r.readable.
func (r *Ring) hasData(p *sim.Proc) bool { return r.available(p) > 0 }

// Read consumes up to len(buf) bytes, blocking until at least one is
// available. It returns the number of bytes read.
func (r *Ring) Read(p *sim.Proc, buf []byte) int {
	if len(buf) == 0 {
		return 0
	}
	r.WaitReadable(p)
	nd := r.rcvEP.Node
	total := 0
	avail := r.available(p)
	for total < len(buf) && avail > 0 {
		off := int(r.readPos) % r.size
		chunk := len(buf) - total
		if chunk > avail {
			chunk = avail
		}
		if chunk > r.size-off {
			chunk = r.size - off
		}
		nd.CPUFor(p).Charge(nd.M.Cfg.Cost.CopyTime(chunk))
		nd.Mem.Read(p, r.dataExp.Base+memory.Addr(off), buf[total:total+chunk])
		r.readPos += uint64(chunk)
		total += chunk
		avail -= chunk
	}
	r.noteConsumed(p, total)
	return total
}

// ReadFull consumes exactly len(buf) bytes.
func (r *Ring) ReadFull(p *sim.Proc, buf []byte) {
	got := 0
	for got < len(buf) {
		got += r.Read(p, buf[got:])
	}
}

// noteConsumed returns credit to the sender once enough has been read.
func (r *Ring) noteConsumed(p *sim.Proc, n int) {
	r.uncredited += n
	if r.uncredited < r.size/4 {
		return
	}
	r.uncredited = 0
	nd := r.rcvEP.Node
	// Publish the cumulative read position into the sender's credit
	// export (internal bookkeeping message).
	scratch := r.creditScratch(p)
	nd.Mem.WriteUint64(p, scratch, r.readPos)
	r.creditImp.Send(p, scratch, 0, 8, vmmc.SendOpts{Internal: true})
}

// creditScratch lazily allocates the receiver-side staging word used to
// DMA credit updates.
func (r *Ring) creditScratch(p *sim.Proc) memory.Addr {
	if r.scratch == 0 {
		r.scratch = r.rcvEP.Node.Mem.Alloc(1)
	}
	return r.scratch
}

// String describes the ring for diagnostics.
func (r *Ring) String() string {
	return fmt.Sprintf("ring[%s %dB %d->%d]", r.cfg.Mode, r.size,
		r.sndEP.Node.ID, r.rcvEP.Node.ID)
}

// DataExport exposes the receiver-side data export (for attaching
// notification handlers to request channels).
func (r *Ring) DataExport() *vmmc.Export { return r.dataExp }
