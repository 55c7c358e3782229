package svm

import (
	"encoding/binary"
	"fmt"

	"shrimp/internal/sim"
)

// Protocol message kinds. Requests travel on notification-serviced
// request channels; replies on polled reply channels — which is why a
// large share of SVM messages carry notifications (Table 3) while the
// rest are polled.
const (
	mFetch      = 1 // a=page, b=requester: send me your master copy
	mFlush      = 2 // a=requester, b=seq: ack when my updates are in place
	mLockAcq    = 3 // a=lock, b=requester
	mLockRel    = 4 // a=lock, b=releaser, payload=dirty pages
	mBarrier    = 5 // a=rank, b=epoch, payload=dirty pages
	mFetchDone  = 6 // a=page
	mFlushAck   = 7 // a=seq
	mLockGrant  = 8 // a=lock, payload=pages to invalidate
	mBarrierRel = 9 // a=epoch, payload=(page, soleWriter) pairs
)

const msgHdrBytes = 16

// msg is one parsed protocol message.
type msg struct {
	kind, a, b int
	payload    []uint32
}

// msgParser incrementally reassembles messages from a stream.
type msgParser struct {
	haveHdr bool
	m       msg
	need    int
}

// encodeMsg renders a message for the wire.
func encodeMsg(kind, a, b int, payload []uint32) []byte {
	buf := make([]byte, msgHdrBytes+4*len(payload))
	binary.LittleEndian.PutUint32(buf[0:], uint32(len(buf)))
	binary.LittleEndian.PutUint32(buf[4:], uint32(kind))
	binary.LittleEndian.PutUint32(buf[8:], uint32(a))
	binary.LittleEndian.PutUint32(buf[12:], uint32(b))
	for i, w := range payload {
		binary.LittleEndian.PutUint32(buf[msgHdrBytes+4*i:], w)
	}
	return buf
}

// parseAvailable drains complete messages from a ring given its parser
// state, without blocking.
func parseAvailable(p *sim.Proc, rg ringReader, st *msgParser, out func(m msg)) {
	for {
		if !st.haveHdr {
			if rg.Available(p) < msgHdrBytes {
				return
			}
			var hdr [msgHdrBytes]byte
			rg.ReadFull(p, hdr[:])
			total := int(binary.LittleEndian.Uint32(hdr[0:]))
			st.m = msg{
				kind: int(binary.LittleEndian.Uint32(hdr[4:])),
				a:    int(binary.LittleEndian.Uint32(hdr[8:])),
				b:    int(binary.LittleEndian.Uint32(hdr[12:])),
			}
			st.need = (total - msgHdrBytes) / 4
			st.m.payload = make([]uint32, 0, st.need)
			st.haveHdr = true
		}
		for st.need > 0 {
			if rg.Available(p) < 4 {
				return
			}
			var w [4]byte
			rg.ReadFull(p, w[:])
			st.m.payload = append(st.m.payload, binary.LittleEndian.Uint32(w[:]))
			st.need--
		}
		st.haveHdr = false
		out(st.m)
	}
}

// ringReader is the read side of a protocol channel.
type ringReader interface {
	Available(p *sim.Proc) int
	ReadFull(p *sim.Proc, buf []byte)
}

// sendReq sends a request message to a peer's request channel.
func (rt *Runtime) sendReq(p *sim.Proc, to int, kind, a, b int, payload []uint32) {
	if to == rt.rank {
		panic("svm: request to self must be handled locally")
	}
	rt.reqOut[to].Write(p, encodeMsg(kind, a, b, payload))
}

// sendRep sends a reply message to a peer's reply channel.
func (rt *Runtime) sendRep(p *sim.Proc, to int, kind, a, b int, payload []uint32) {
	if to == rt.rank {
		panic("svm: reply to self must be handled locally")
	}
	rt.repOut[to].Write(p, encodeMsg(kind, a, b, payload))
}

// readReply blocks until the next complete reply from a peer arrives,
// verifying its kind. At most one request per peer is outstanding from
// the application at any time, so the next reply is ours.
func (rt *Runtime) readReply(p *sim.Proc, from int, wantKind int) msg {
	rg := rt.repIn[from]
	var hdr [msgHdrBytes]byte
	rg.ReadFull(p, hdr[:])
	total := int(binary.LittleEndian.Uint32(hdr[0:]))
	m := msg{
		kind: int(binary.LittleEndian.Uint32(hdr[4:])),
		a:    int(binary.LittleEndian.Uint32(hdr[8:])),
		b:    int(binary.LittleEndian.Uint32(hdr[12:])),
	}
	words := (total - msgHdrBytes) / 4
	if words > 0 {
		buf := make([]byte, 4*words)
		rg.ReadFull(p, buf)
		m.payload = make([]uint32, words)
		for i := range m.payload {
			m.payload[i] = binary.LittleEndian.Uint32(buf[4*i:])
		}
	}
	if m.kind != wantKind {
		panic(fmt.Sprintf("svm: rank %d expected reply kind %d from %d, got %d",
			rt.rank, wantKind, from, m.kind))
	}
	return m
}

// serviceRequests runs in a notification handler when peer src's
// request channel receives a message: it drains and processes every
// complete request. A per-node service lock serializes handlers.
func (rt *Runtime) serviceRequests(p *sim.Proc, src int) {
	rt.svc.Acquire(p)
	defer rt.svc.Release()
	parseAvailable(p, rt.reqIn[src], &rt.reqParse[src], func(m msg) {
		rt.process(p, src, m)
	})
}

// process executes one request in handler context.
func (rt *Runtime) process(p *sim.Proc, src int, m msg) {
	switch m.kind {
	case mFetch:
		rt.serveFetch(p, src, m.a)
	case mFlush:
		// All prior updates from src arrived in order before this
		// request; acknowledge.
		rt.sendRep(p, src, mFlushAck, m.b, 0, nil)
	case mLockAcq:
		rt.serveLockAcquire(p, m.a, m.b)
	case mLockRel:
		rt.serveLockRelease(p, m.a, m.b, m.payload)
	case mBarrier:
		rt.serveBarrierArrive(p, m.a, m.b, m.payload)
	default:
		panic(fmt.Sprintf("svm: unknown request kind %d from %d", m.kind, src))
	}
}
