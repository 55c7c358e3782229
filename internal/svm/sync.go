package svm

import (
	"fmt"
	"sort"

	"shrimp/internal/sim"
	"shrimp/internal/stats"
	"shrimp/internal/trace"
)

// ---- Locks -------------------------------------------------------------
//
// Each lock is managed by its home node (lock % N). Acquire and release
// are request messages; grants carry the write notices the acquirer
// must invalidate, giving lazy-release-consistency semantics across
// lock transfers.

// localGrant delivers a grant to the manager node's own application.
type localGrant struct {
	lock  int
	pages []uint32
}

// Acquire obtains a lock, invalidating pages written under it since
// this node last held it.
func (rt *Runtime) Acquire(p *sim.Proc, lock int) {
	s := rt.s
	if lock < 0 || lock >= len(s.locks) {
		panic(fmt.Sprintf("svm: lock %d out of range", lock))
	}
	cpu := rt.node.CPUFor(p)
	cpu.Flush(p)
	mgr := lock % s.Nodes()
	if mgr == rt.rank {
		rt.svc.Acquire(p)
		rt.serveLockAcquire(p, lock, rt.rank)
		rt.svc.Release()
	} else {
		rt.sendReq(p, mgr, mLockAcq, lock, rt.rank, nil)
	}
	var pages []uint32
	since := cpu.BeginWait(p)
	if mgr == rt.rank {
		for len(rt.localGrants) == 0 {
			rt.lockCond.Wait(p)
		}
		g := rt.localGrants[0]
		rt.localGrants = rt.localGrants[1:]
		if g.lock != lock {
			panic("svm: local grant for wrong lock")
		}
		pages = g.pages
	} else {
		m := rt.readReply(p, mgr, mLockGrant)
		if m.a != lock {
			panic("svm: grant for wrong lock")
		}
		pages = m.payload
	}
	cpu.EndWait(p, stats.Lock, since)
	rt.trace(trace.KLockAcq, int64(lock), 0)
	invals := make([]invalidation, len(pages))
	for i, pg := range pages {
		invals[i] = invalidation{page: int(pg), soleWriter: -1}
	}
	rt.applyInvalidations(p, invals)
}

// ReleaseLock performs a memory release (pushing this node's writes
// home) and then unlocks, attaching the write notices.
func (rt *Runtime) ReleaseLock(p *sim.Proc, lock int) {
	s := rt.s
	notices := rt.Release(p)
	rt.trace(trace.KLockRel, int64(lock), int64(len(notices)))
	payload := pagesToWords(notices)
	mgr := lock % s.Nodes()
	if mgr == rt.rank {
		rt.svc.Acquire(p)
		rt.serveLockRelease(p, lock, rt.rank, payload)
		rt.svc.Release()
		return
	}
	rt.sendReq(p, mgr, mLockRel, lock, rt.rank, payload)
}

func pagesToWords(pages []int) []uint32 {
	w := make([]uint32, len(pages))
	for i, pg := range pages {
		w[i] = uint32(pg)
	}
	return w
}

// serveLockAcquire runs at the manager (handler context, or inline for
// the manager's own application).
func (rt *Runtime) serveLockAcquire(p *sim.Proc, lock, requester int) {
	ls := rt.s.locks[lock]
	if !ls.held {
		ls.held = true
		ls.holder = requester
		rt.grantLock(p, lock, requester)
		return
	}
	ls.waiters = append(ls.waiters, requester)
}

// serveLockRelease runs at the manager: record notices, pass the lock on.
func (rt *Runtime) serveLockRelease(p *sim.Proc, lock, releaser int, pages []uint32) {
	ls := rt.s.locks[lock]
	if !ls.held || ls.holder != releaser {
		panic(fmt.Sprintf("svm: release of lock %d by non-holder %d", lock, releaser))
	}
	ls.version++
	for _, pg := range pages {
		ls.noticeVer[int(pg)] = ls.version
	}
	ls.lastSeen[releaser] = ls.version
	if len(ls.waiters) == 0 {
		ls.held = false
		return
	}
	next := ls.waiters[0]
	ls.waiters = ls.waiters[1:]
	ls.holder = next
	rt.grantLock(p, lock, next)
}

// grantLock delivers the lock with the notices the grantee has missed.
func (rt *Runtime) grantLock(p *sim.Proc, lock, to int) {
	ls := rt.s.locks[lock]
	var pages []uint32
	for pg, ver := range ls.noticeVer {
		if ver > ls.lastSeen[to] {
			pages = append(pages, uint32(pg))
		}
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	ls.lastSeen[to] = ls.version
	if to == rt.rank {
		rt.localGrants = append(rt.localGrants, localGrant{lock: lock, pages: pages})
		rt.lockCond.Broadcast()
		return
	}
	rt.sendRep(p, to, mLockGrant, lock, 0, pages)
}

// ---- Barriers ----------------------------------------------------------
//
// A centralized barrier manager on node 0 collects per-node write
// notices, merges them into a global invalidation list annotated with
// sole-writer information, and releases everyone.

type barrierState struct {
	n       int
	epoch   int
	arrived int
	writers map[int]map[int]bool
}

func newBarrierState(n int) *barrierState {
	return &barrierState{n: n, writers: make(map[int]map[int]bool)}
}

const multiWriter = 0xffffffff

// Barrier releases this node's writes, waits for all nodes, and applies
// the global invalidations.
func (rt *Runtime) Barrier(p *sim.Proc) {
	s := rt.s
	rt.Release(p)
	if s.Nodes() == 1 {
		rt.sinceBarrier = make(map[int]bool)
		return
	}
	cpu := rt.node.CPUFor(p)
	// A barrier is a global acquire: it must carry every page this node
	// dirtied since the previous barrier, including writes already
	// released under locks.
	pages := make([]int, 0, len(rt.sinceBarrier))
	for pg := range rt.sinceBarrier {
		pages = append(pages, pg)
	}
	sort.Ints(pages)
	rt.sinceBarrier = make(map[int]bool)
	payload := pagesToWords(pages)
	if rt.rank == 0 {
		bar := s.nodes[0].bar
		target := bar.epoch
		rt.trace(trace.KBarEnter, int64(target), 0)
		rt.svc.Acquire(p)
		rt.serveBarrierArrive(p, 0, bar.epoch, payload)
		rt.svc.Release()
		since := cpu.BeginWait(p)
		for bar.epoch == target {
			rt.barWait.Wait(p)
		}
		cpu.EndWait(p, stats.Barrier, since)
		invals := rt.pendInval
		rt.pendInval = nil
		rt.applyInvalidations(p, invals)
		rt.trace(trace.KBarExit, int64(target), 0)
		return
	}
	epoch := rt.barEpoch
	rt.trace(trace.KBarEnter, int64(epoch), 0)
	rt.sendReq(p, 0, mBarrier, rt.rank, rt.barEpoch, payload)
	rt.barEpoch++
	since := cpu.BeginWait(p)
	m := rt.readReply(p, 0, mBarrierRel)
	cpu.EndWait(p, stats.Barrier, since)
	invals := make([]invalidation, 0, len(m.payload)/2)
	for i := 0; i+1 < len(m.payload); i += 2 {
		sw := int(int32(m.payload[i+1]))
		if m.payload[i+1] == multiWriter {
			sw = -1
		}
		invals = append(invals, invalidation{page: int(m.payload[i]), soleWriter: sw})
	}
	rt.applyInvalidations(p, invals)
	rt.trace(trace.KBarExit, int64(epoch), 0)
}

// serveBarrierArrive runs at the manager (node 0): record the arrival
// and release everyone when complete.
func (rt *Runtime) serveBarrierArrive(p *sim.Proc, rank, epoch int, pages []uint32) {
	bar := rt.s.nodes[0].bar
	for _, pg := range pages {
		w := bar.writers[int(pg)]
		if w == nil {
			w = make(map[int]bool)
			bar.writers[int(pg)] = w
		}
		w[rank] = true
	}
	bar.arrived++
	if bar.arrived < bar.n {
		return
	}
	// Complete: build the global invalidation list in page order for
	// deterministic replies.
	pgs := make([]int, 0, len(bar.writers))
	for pg := range bar.writers {
		pgs = append(pgs, pg)
	}
	sort.Ints(pgs)
	var payload []uint32
	var invals []invalidation
	for _, pg := range pgs {
		w := bar.writers[pg]
		sole := -1
		if len(w) == 1 {
			for r := range w {
				sole = r
			}
		}
		enc := uint32(multiWriter)
		if sole >= 0 {
			enc = uint32(sole)
		}
		payload = append(payload, uint32(pg), enc)
		invals = append(invals, invalidation{page: pg, soleWriter: sole})
	}
	bar.arrived = 0
	bar.writers = make(map[int]map[int]bool)
	bar.epoch++
	for r := 1; r < bar.n; r++ {
		rt.sendRep(p, r, mBarrierRel, bar.epoch, 0, payload)
	}
	rt.s.nodes[0].pendInval = invals
	rt.s.nodes[0].barWait.Broadcast()
}
