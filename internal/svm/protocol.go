package svm

import (
	"fmt"
	"sort"

	"shrimp/internal/memory"
	"shrimp/internal/sim"
	"shrimp/internal/stats"
	"shrimp/internal/trace"
	"shrimp/internal/vmmc"
)

// handleFault is the VM protection-fault handler driving all three
// protocols. It runs in the faulting (application) process.
func (rt *Runtime) handleFault(p *sim.Proc, vpn int, write bool) {
	page := vpn - rt.base.VPN()
	if page < 0 || page >= rt.s.Pages {
		panic(fmt.Sprintf("svm: fault on non-region page %d", vpn))
	}
	cpu := rt.node.CPUFor(p)
	cost := rt.node.M.Cfg.Cost
	cpu.ChargeOverhead(cost.PageFaultCost)
	rt.node.Acct.Counters.PageFaults++
	if write {
		rt.trace(trace.KPageFault, int64(page), 1)
	} else {
		rt.trace(trace.KPageFault, int64(page), 0)
	}

	st := &rt.state[page]
	if st.status == pgInvalid {
		rt.fetch(p, page)
		st.status = pgClean
		rt.node.Mem.SetProt(vpn, memory.ProtRead)
	}
	if !write {
		return
	}
	if st.status == pgDirty {
		return // racing fault resolution; already writable
	}
	// Write fault on a clean page: prepare for write detection.
	home := rt.s.Home(page)
	proto := rt.s.cfg.Protocol
	if home != rt.rank {
		if proto == HLRC || proto == HLRCAU {
			// Twin: a pristine copy to diff against at release.
			data := rt.node.Mem.PageData(vpn)
			st.twin = make([]byte, memory.PageSize)
			copy(st.twin, data)
			cpu.ChargeOverhead(cost.CopyTime(memory.PageSize))
		}
		if proto.UsesAU() {
			// Bind the page write-through to its home copy: every store
			// now propagates as automatic update, combined whenever the
			// NIC's combining knob is on.
			rt.regionImp[home].BindAU(p, rt.Addr(page*memory.PageSize), page, 1,
				true, false)
		}
	}
	st.status = pgDirty
	rt.dirty = append(rt.dirty, page)
	rt.node.Mem.SetProt(vpn, memory.ProtReadWrite)
}

// fetch obtains the current master copy of a page from its home. The
// home deliberate-updates the page directly into our region buffer and
// then posts the completion reply on the ordered reply channel.
func (rt *Runtime) fetch(p *sim.Proc, page int) {
	home := rt.s.Home(page)
	if home == rt.rank {
		panic("svm: fetch of self-homed page")
	}
	cpu := rt.node.CPUFor(p)
	rt.trace(trace.KPageFetch, int64(page), int64(home))
	rt.sendReq(p, home, mFetch, page, rt.rank, nil)
	since := cpu.BeginWait(p)
	rt.readReply(p, home, mFetchDone)
	cpu.EndWait(p, stats.Comm, since)
	rt.node.Acct.Counters.PagesFetched++
}

// serveFetch (handler context, at the home) ships the master copy of a
// page into the requester's region, then signals completion. Channel
// ordering guarantees the data precedes the signal.
func (rt *Runtime) serveFetch(p *sim.Proc, requester, page int) {
	if rt.s.Home(page) != rt.rank {
		panic(fmt.Sprintf("svm: fetch of page %d at non-home %d", page, rt.rank))
	}
	src := rt.Addr(page * memory.PageSize)
	rt.regionImp[requester].Send(p, src, page*memory.PageSize, memory.PageSize,
		vmmc.SendOpts{})
	rt.sendRep(p, requester, mFetchDone, page, 0, nil)
}

// diffRun is a contiguous changed byte range within a page.
type diffRun struct{ off, len int }

// computeDiff scans twin vs current and returns the changed runs.
// Adjacent runs separated by fewer than 8 unchanged bytes are merged to
// bound per-run transfer overhead, as real diff encoders do.
func computeDiff(twin, cur []byte) []diffRun {
	var runs []diffRun
	i := 0
	for i < len(cur) {
		if twin[i] == cur[i] {
			i++
			continue
		}
		start := i
		gap := 0
		j := i
		for j < len(cur) && gap < 8 {
			if twin[j] != cur[j] {
				gap = 0
			} else {
				gap++
			}
			j++
		}
		end := j - gap
		runs = append(runs, diffRun{off: start, len: end - start})
		i = j
	}
	return runs
}

// Release pushes this node's writes toward their homes and downgrades
// written pages to read-only, per the configured protocol. It returns
// the list of pages dirtied since the previous release (the write
// notices). Callers (lock release, barrier) deliver the notices.
func (rt *Runtime) Release(p *sim.Proc) []int {
	cpu := rt.node.CPUFor(p)
	cost := rt.node.M.Cfg.Cost
	proto := rt.s.cfg.Protocol
	notices := rt.dirty
	rt.dirty = nil
	for _, pg := range notices {
		rt.sinceBarrier[pg] = true
	}
	homesTouched := map[int]bool{}

	for _, page := range notices {
		st := &rt.state[page]
		vpn := rt.pageVPN(page)
		home := rt.s.Home(page)
		if home != rt.rank {
			switch proto {
			case HLRC:
				rt.pushDiff(p, page, st)
			case HLRCAU:
				// The AU hardware already propagated the stores; the
				// protocol still computes the diff to derive its write
				// notices — the overhead the paper finds undiminished.
				cpu.ChargeOverhead(cost.DiffWordCost * memory.PageSize / 4)
				rt.node.Acct.Counters.DiffsCreated++
				rt.trace(trace.KDiffCreate, int64(page), 0)
				st.twin = nil
				rt.regionImp[home].UnbindAU(rt.Addr(page*memory.PageSize), 1)
			case AURC:
				// No twins, no diffs: just unbind.
				rt.regionImp[home].UnbindAU(rt.Addr(page*memory.PageSize), 1)
			}
			homesTouched[home] = true
		}
		st.status = pgClean
		rt.node.Mem.SetProt(vpn, memory.ProtRead)
	}

	if len(homesTouched) > 0 {
		if proto.UsesAU() {
			// Make sure every automatic update has left the NIC before
			// the flush markers, establishing AU-before-DU ordering.
			rt.ep.FenceAU(p)
		}
		homes := make([]int, 0, len(homesTouched))
		for home := range homesTouched {
			homes = append(homes, home)
		}
		sort.Ints(homes)
		// One ordered flush round-trip per home guarantees our updates
		// are applied before anyone is told about them.
		for _, home := range homes {
			rt.sendReq(p, home, mFlush, rt.rank, 0, nil)
		}
		since := cpu.BeginWait(p)
		for _, home := range homes {
			rt.readReply(p, home, mFlushAck)
		}
		cpu.EndWait(p, stats.Comm, since)
	}
	return notices
}

// pushDiff computes the HLRC diff of a dirty page and deliberate-
// updates the changed runs directly into the home's master copy.
func (rt *Runtime) pushDiff(p *sim.Proc, page int, st *pageState) {
	cpu := rt.node.CPUFor(p)
	cost := rt.node.M.Cfg.Cost
	home := rt.s.Home(page)
	cur := rt.node.Mem.PageData(rt.pageVPN(page))
	cpu.ChargeOverhead(cost.DiffWordCost * memory.PageSize / 4)
	runs := computeDiff(st.twin, cur)
	rt.node.Acct.Counters.DiffsCreated++
	rt.trace(trace.KDiffCreate, int64(page), 0)
	base := page * memory.PageSize
	for i, run := range runs {
		rt.regionImp[home].Send(p, rt.Addr(base+run.off), base+run.off, run.len,
			vmmc.SendOpts{Internal: i > 0})
	}
	if len(runs) > 0 {
		rt.node.M.Acct.Nodes[home].Counters.DiffsApplied++
		if rt.tr != nil {
			rt.tr.Record(int64(rt.node.M.E.Now()), trace.KDiffApply, int32(home), int64(page), 0)
		}
	}
	st.twin = nil
}

// applyInvalidations discards stale local copies named by the sync
// notices. A node keeps its copy if it is the page's home (master) or
// was the page's only writer.
func (rt *Runtime) applyInvalidations(p *sim.Proc, invals []invalidation) {
	for _, iv := range invals {
		if rt.s.Home(iv.page) == rt.rank || iv.soleWriter == rt.rank {
			continue
		}
		st := &rt.state[iv.page]
		if st.status == pgInvalid {
			continue
		}
		if st.status == pgDirty {
			// Should not happen after a Release, but be safe: push
			// before discarding.
			if rt.s.Home(iv.page) != rt.rank && rt.s.cfg.Protocol == HLRC {
				rt.pushDiff(p, iv.page, st)
			}
			st.twin = nil
		}
		st.status = pgInvalid
		rt.node.Mem.SetProt(rt.pageVPN(iv.page), memory.ProtNone)
	}
}
