package memory

// Checkpoint support: an AddressSpace can capture its state at an
// instant and later rewind to it, with fork cost proportional to the
// pages actually written in between — not to the size of memory.
//
// BeginSnapshot copies only per-page metadata (O(pages), a few bytes
// each) and arms copy-on-write: every write path in memory.go goes
// through own, which calls capture(vpn) before the first post-snapshot
// modification of a page. capture saves the page's pristine contents,
// or just notes the page if it was clean (backed by the shared zero
// page). Restore then rewinds exactly the touched pages and truncates
// any post-snapshot allocations, so a branch that dirtied k pages
// restores in O(k).
//
// The capture set is cumulative across branches: a page saved once
// stays saved, so re-dirtying it in a later branch skips the copy and
// Restore still rewinds it to the snapshot contents.

// pageMeta is the snapshot copy of one page's bookkeeping.
//
//shrimp:state
type pageMeta struct {
	mapped bool
	dirty  bool
	prot   Prot
}

// Snapshot is a rewindable capture of an AddressSpace. It stays
// attached (and copy-on-write stays armed) until Detach or Release.
type Snapshot struct {
	as     *AddressSpace
	npages int
	brk    Addr
	meta   []pageMeta

	// touched marks pages written since the snapshot; touchedList holds
	// them in first-touch order so Restore is O(touched). saved holds a
	// pristine copy for pages that were dirty at snapshot time; touched
	// pages with a nil saved entry were clean and go back to the zero
	// page.
	touched     []bool //shrimp:nostate captured: first-touch dedup index over touchedList, which Restore walks instead
	touchedList []int
	saved       [][]byte
}

// BeginSnapshot captures the address space and arms copy-on-write.
// Only one snapshot may be active per address space.
func (as *AddressSpace) BeginSnapshot() *Snapshot {
	if as.ck != nil {
		panic("memory: snapshot already active")
	}
	np := len(as.pages)
	ck := &Snapshot{
		as:      as,
		npages:  np,
		brk:     as.brk,
		meta:    make([]pageMeta, np),
		touched: make([]bool, np),
		saved:   make([][]byte, np),
	}
	for i := range as.pages {
		pg := &as.pages[i]
		ck.meta[i] = pageMeta{mapped: pg.mapped, dirty: pg.dirty, prot: pg.prot}
	}
	as.ck = ck
	return ck
}

// capture saves a page's pristine contents before its first
// post-snapshot write. Pages allocated after the snapshot need no
// saving: Restore unmaps them wholesale.
func (ck *Snapshot) capture(vpn int) {
	if vpn >= ck.npages || ck.touched[vpn] {
		return
	}
	ck.touched[vpn] = true
	ck.touchedList = append(ck.touchedList, vpn)
	if ck.meta[vpn].dirty {
		buf := make([]byte, PageSize)
		copy(buf, ck.as.pages[vpn].data[:])
		ck.saved[vpn] = buf
	}
	// A clean page was the shared zero page; Restore puts it back there
	// without needing a copy.
}

// Restore rewinds the address space to the snapshot: post-snapshot
// allocations are unmapped and their written pages recycled, touched
// pages get their pristine contents back (pages clean at the snapshot
// return their private backing to the pool), and per-page metadata
// (protection, dirty bits) is reset for every page. Copy-on-write
// stays armed, so the snapshot can be restored again after further
// writes.
func (ck *Snapshot) Restore() {
	as := ck.as
	if as.ck != ck {
		panic("memory: restoring a detached snapshot")
	}
	// Unmap pages allocated after the snapshot, returning their written
	// pages to the pool.
	releasePages(as.pages[ck.npages:])
	as.pages = as.pages[:ck.npages]
	as.brk = ck.brk
	// Rewind touched page contents. A page dirty at the snapshot has
	// stayed dirty (only Restore and Release clean a page), so it still
	// has private backing to copy into; a page clean at the snapshot
	// goes back to the zero page.
	for _, vpn := range ck.touchedList {
		if buf := ck.saved[vpn]; buf != nil {
			copy(as.own(vpn)[:], buf)
		} else {
			releasePages(as.pages[vpn : vpn+1])
		}
	}
	// Reset metadata for every surviving page (protection can change
	// without any write, so this cannot ride the touched list).
	for i := range as.pages {
		m := ck.meta[i]
		pg := &as.pages[i]
		pg.mapped = m.mapped
		pg.dirty = m.dirty
		pg.prot = m.prot
	}
}

// Detach disarms copy-on-write without rewinding. The snapshot is dead
// afterwards.
func (ck *Snapshot) Detach() {
	if ck.as.ck == ck {
		ck.as.ck = nil
	}
}
