package svm

import (
	"fmt"

	"shrimp/internal/ring"
)

// Checkpoint support. SVM quiescence is barrier quiescence: every rank
// has just left the same barrier, so all twins are flushed, dirty
// lists and write-notice accumulators are empty, no invalidations or
// lock grants are pending, and every parser sits between messages.
// What carries across barriers — and therefore must be snapshotted —
// is per-page protocol status, the lock-manager tables (versions,
// write notices, last-synchronized versions), the barrier epoch
// counters, the protocol ring positions and the bump allocator.

// runtimeState is the snapshot copy of one rank's dynamic state.
//
//shrimp:state
type runtimeState struct {
	status   []pageStatus
	barEpoch int
}

// lockSnap is the snapshot copy of one lock's manager-side state.
//
//shrimp:state
type lockSnap struct {
	held      bool
	holder    int
	waiters   []int
	version   int
	noticeVer map[int]int
	lastSeen  []int
}

// SystemSnapshot captures the whole SVM system.
//
//shrimp:state
type SystemSnapshot struct {
	brk      int
	nodes    []runtimeState
	locks    []lockSnap
	barEpoch int // manager epoch (rank 0's barrierState)
	rings    []ring.Snapshot
}

// Quiescent reports nil when every rank is parked at a barrier
// boundary with no protocol activity in flight.
func (s *System) Quiescent() error {
	for _, rt := range s.nodes {
		switch {
		case len(rt.dirty) != 0:
			return fmt.Errorf("svm: rank %d: %d unreleased dirty pages", rt.rank, len(rt.dirty))
		case len(rt.sinceBarrier) != 0:
			return fmt.Errorf("svm: rank %d: write notices not yet carried to a barrier", rt.rank)
		case len(rt.pendInval) != 0:
			return fmt.Errorf("svm: rank %d: %d invalidations pending", rt.rank, len(rt.pendInval))
		case len(rt.localGrants) != 0:
			return fmt.Errorf("svm: rank %d: %d local lock grants pending", rt.rank, len(rt.localGrants))
		case rt.svc.Busy() || rt.svc.QueueLen() != 0:
			return fmt.Errorf("svm: rank %d: request service busy", rt.rank)
		case rt.barWait.Waiters() != 0:
			return fmt.Errorf("svm: rank %d: procs parked at barrier", rt.rank)
		case rt.lockCond.Waiters() != 0:
			return fmt.Errorf("svm: rank %d: procs parked on lock grant", rt.rank)
		}
		for pg := range rt.state {
			if rt.state[pg].twin != nil {
				return fmt.Errorf("svm: rank %d: page %d holds an unflushed twin", rt.rank, pg)
			}
		}
		for peer := range rt.reqParse {
			if rt.reqParse[peer].haveHdr || rt.reqParse[peer].need != 0 {
				return fmt.Errorf("svm: rank %d: request parser mid-message from %d", rt.rank, peer)
			}
			if rt.repParse[peer].haveHdr || rt.repParse[peer].need != 0 {
				return fmt.Errorf("svm: rank %d: reply parser mid-message from %d", rt.rank, peer)
			}
		}
	}
	if bar := s.nodes[0].bar; bar != nil {
		if bar.arrived != 0 {
			return fmt.Errorf("svm: barrier manager holds %d arrivals", bar.arrived)
		}
		if len(bar.writers) != 0 {
			return fmt.Errorf("svm: barrier manager holds write notices for %d pages", len(bar.writers))
		}
	}
	return nil
}

// eachRing visits every protocol ring exactly once. The out-side slices
// enumerate them without duplicates: reqOut[src][dst] is the same Ring
// object as reqIn[dst][src].
func (s *System) eachRing(fn func(r *ring.Ring)) {
	for _, rt := range s.nodes {
		for dst := range rt.reqOut {
			if rt.reqOut[dst] != nil {
				fn(rt.reqOut[dst])
			}
			if rt.repOut[dst] != nil {
				fn(rt.repOut[dst])
			}
		}
	}
}

// Snapshot captures the system at barrier quiescence.
func (s *System) Snapshot() SystemSnapshot {
	snap := SystemSnapshot{brk: s.brk}
	for _, rt := range s.nodes {
		rs := runtimeState{status: make([]pageStatus, len(rt.state)), barEpoch: rt.barEpoch}
		for pg := range rt.state {
			rs.status[pg] = rt.state[pg].status
		}
		snap.nodes = append(snap.nodes, rs)
	}
	for _, lk := range s.locks {
		ls := lockSnap{
			held:      lk.held,
			holder:    lk.holder,
			waiters:   append([]int(nil), lk.waiters...),
			version:   lk.version,
			noticeVer: make(map[int]int, len(lk.noticeVer)),
			lastSeen:  append([]int(nil), lk.lastSeen...),
		}
		for pg, v := range lk.noticeVer {
			ls.noticeVer[pg] = v
		}
		snap.locks = append(snap.locks, ls)
	}
	if bar := s.nodes[0].bar; bar != nil {
		snap.barEpoch = bar.epoch
	}
	s.eachRing(func(r *ring.Ring) {
		snap.rings = append(snap.rings, r.SnapshotState())
	})
	return snap
}

// Restore rewinds the system to the snapshot. Page protections are
// restored by the memory layer; this restores the protocol's view of
// them plus everything the barrier epoch and lock tables accumulated.
func (s *System) Restore(snap SystemSnapshot) {
	s.brk = snap.brk
	for i, rt := range s.nodes {
		rs := &snap.nodes[i]
		for pg := range rt.state {
			rt.state[pg].status = rs.status[pg]
			rt.state[pg].twin = nil
		}
		rt.dirty = rt.dirty[:0]
		rt.sinceBarrier = make(map[int]bool)
		rt.pendInval = nil
		rt.localGrants = nil
		rt.barEpoch = rs.barEpoch
		for peer := range rt.reqParse {
			rt.reqParse[peer] = msgParser{}
			rt.repParse[peer] = msgParser{}
		}
	}
	for i, lk := range s.locks {
		ls := &snap.locks[i]
		lk.held = ls.held
		lk.holder = ls.holder
		lk.waiters = append(lk.waiters[:0], ls.waiters...)
		lk.version = ls.version
		lk.noticeVer = make(map[int]int, len(ls.noticeVer))
		for pg, v := range ls.noticeVer {
			lk.noticeVer[pg] = v
		}
		copy(lk.lastSeen, ls.lastSeen)
	}
	if bar := s.nodes[0].bar; bar != nil {
		bar.epoch = snap.barEpoch
		bar.arrived = 0
		bar.writers = make(map[int]map[int]bool)
	}
	i := 0
	s.eachRing(func(r *ring.Ring) {
		r.RestoreState(snap.rings[i])
		i++
	})
}
