// Package memory models a node's virtual address space as an array of
// 4 KB pages with per-page protection, a write-snoop hook (how the SHRIMP
// network interface observes stores on the Xpress memory bus), and a
// page-fault hook (how shared virtual memory protocols intercept access).
//
// Data held in an AddressSpace is real: deliberate-update and
// automatic-update transfers copy actual bytes between address spaces,
// so applications compute verifiable results through the simulated
// communication subsystem. A mapped page owns no bytes until its first
// write: it reads through one shared zero page, then takes a 4 KB
// buffer from a process-wide pool that Release refills.
package memory

import (
	"encoding/binary"
	"fmt"
	"sync"

	"shrimp/internal/sim"
)

// Page geometry shared by the whole system (matches the i486/Pentium
// 4 KB page the SHRIMP OPT/IPT are built around).
const (
	PageShift = 12
	PageSize  = 1 << PageShift
	PageMask  = PageSize - 1
)

// Addr is a virtual address within one node's address space.
type Addr uint32

// VPN returns the virtual page number containing a.
func (a Addr) VPN() int { return int(a >> PageShift) }

// Offset returns the offset of a within its page.
func (a Addr) Offset() int { return int(a & PageMask) }

// PageBase returns the address of the first byte of a's page.
func (a Addr) PageBase() Addr { return a &^ Addr(PageMask) }

// Prot is a page protection mode, used by the SVM protocols.
type Prot uint8

const (
	// ProtNone faults on any access.
	ProtNone Prot = iota
	// ProtRead faults on writes only.
	ProtRead
	// ProtReadWrite allows all access.
	ProtReadWrite
)

func (p Prot) String() string {
	switch p {
	case ProtNone:
		return "none"
	case ProtRead:
		return "read"
	default:
		return "read-write"
	}
}

type page struct {
	data   *[PageSize]byte
	mapped bool
	// dirty records that the page has private backing and may hold
	// nonzero bytes; a clean page reads through the shared zeroPage.
	// Every path that can modify data takes private backing first (see
	// own), including PageData, whose caller may write.
	dirty bool
	prot  Prot
}

// zeroPage backs every clean page. Apps map whole communication
// regions page by page but write only a small share of them, so most
// mapped pages never cost memory of their own. Only the read paths ever
// see zeroPage: every write path, and PageData, takes private backing
// first (own).
var zeroPage = new([PageSize]byte)

// pagePool is the process-wide freelist of private page buffers. A page
// takes one on its first write (own) and gives it back zeroed when its
// address space is released, so the pool holds at
// most as many pages as were ever written at once, whatever the sizes
// of the address spaces that wrote them. The pool is shared by all
// workers; the mutex is taken once per first write and once per
// release.
var pagePool struct {
	sync.Mutex
	free     []*[PageSize]byte
	resident int // buffers handed out and not yet given back
}

// getPage returns a zeroed private page buffer.
func getPage() *[PageSize]byte {
	pagePool.Lock()
	defer pagePool.Unlock()
	pagePool.resident++
	if n := len(pagePool.free); n > 0 {
		b := pagePool.free[n-1]
		pagePool.free[n-1] = nil
		pagePool.free = pagePool.free[:n-1]
		return b
	}
	return new([PageSize]byte)
}

// releasePages zeroes the private backing of every dirty page in pgs,
// returns it to the pool and puts the page back on zeroPage.
func releasePages(pgs []page) {
	pagePool.Lock()
	defer pagePool.Unlock()
	for i := range pgs {
		if pg := &pgs[i]; pg.dirty {
			*pg.data = [PageSize]byte{}
			pagePool.free = append(pagePool.free, pg.data)
			pagePool.resident--
			pg.data = zeroPage
			pg.dirty = false
		}
	}
}

// PoolStats reports the page pool's footprint: resident pages hold
// private backing for some address space (written and not yet
// released), and free pages wait in the pool for the next first
// write. Each page is PageSize bytes.
func PoolStats() (resident, free int) {
	pagePool.Lock()
	defer pagePool.Unlock()
	return pagePool.resident, len(pagePool.free)
}

// SnoopFunc observes a completed store to main memory. It runs at the
// instant of the store, in the storer's context.
type SnoopFunc func(addr Addr, size int)

// FaultFunc resolves a protection fault. It runs in the faulting
// process's context and must upgrade the page's protection before
// returning (the access is retried once).
type FaultFunc func(p *sim.Proc, vpn int, write bool)

// AddressSpace is one node's paged memory.
type AddressSpace struct {
	pages []page
	brk   Addr

	// Snoop, if set, is invoked after every CPU store (not DMA stores;
	// see DMAWrite). This is the hook the NIC's AU logic attaches to.
	//shrimp:continuation
	Snoop SnoopFunc
	// Fault, if set, is invoked on protection violations.
	Fault FaultFunc
}

// NewAddressSpace returns an empty address space. Page zero is left
// unmapped so that address 0 is never valid.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{pages: make([]page, 1), brk: PageSize}
}

// Alloc maps npages fresh zeroed pages with read-write protection and
// returns the base address of the run. The pages read as zeroPage until
// their first write.
func (as *AddressSpace) Alloc(npages int) Addr {
	if npages <= 0 {
		panic("memory: Alloc of non-positive page count")
	}
	base := as.brk
	for i := 0; i < npages; i++ {
		as.pages = append(as.pages, page{data: zeroPage, mapped: true, prot: ProtReadWrite})
	}
	as.brk += Addr(npages * PageSize)
	return base
}

// AllocBytes maps enough pages for n bytes and returns the base address.
func (as *AddressSpace) AllocBytes(n int) Addr {
	return as.Alloc((n + PageSize - 1) / PageSize)
}

// Release returns every written page to the shared pool, zeroed, for
// the next machine to reuse. The address space is unusable afterwards.
// Callers that skip Release (tests, one-shot runs) simply leave their
// pages to the garbage collector; PoolStats still counts them resident.
func (as *AddressSpace) Release() {
	releasePages(as.pages)
	as.pages = nil
	as.brk = 0
}

// Pages reports the number of page slots (mapped or not).
func (as *AddressSpace) Pages() int { return len(as.pages) }

// Prot returns the protection of a mapped page.
func (as *AddressSpace) Prot(vpn int) Prot {
	as.check(vpn)
	return as.pages[vpn].prot
}

// SetProt changes the protection of a mapped page.
func (as *AddressSpace) SetProt(vpn int, p Prot) {
	as.check(vpn)
	as.pages[vpn].prot = p
}

// PageData exposes the raw backing bytes of a page (for DMA engines,
// twin creation, and diff application). The caller must respect the
// simulation's timing discipline itself.
func (as *AddressSpace) PageData(vpn int) []byte {
	as.check(vpn)
	// The caller may write through the returned slice, so the page must
	// have private backing from here on.
	return as.own(vpn)[:]
}

// own prepares page vpn for a write and returns its bytes: a clean
// page swaps zeroPage for a zeroed buffer from the pool. It is the only
// place a page becomes dirty.
func (as *AddressSpace) own(vpn int) *[PageSize]byte {
	pg := &as.pages[vpn]
	if !pg.dirty {
		pg.data = getPage()
		pg.dirty = true
	}
	return pg.data
}

func (as *AddressSpace) check(vpn int) {
	if vpn < 0 || vpn >= len(as.pages) || !as.pages[vpn].mapped {
		panic(fmt.Sprintf("memory: access to unmapped page %d", vpn))
	}
}

// ensure resolves protection for an access of kind write at vpn,
// invoking the fault handler as needed.
func (as *AddressSpace) ensure(p *sim.Proc, vpn int, write bool) {
	as.check(vpn)
	for tries := 0; ; tries++ {
		prot := as.pages[vpn].prot
		ok := prot == ProtReadWrite || (!write && prot == ProtRead)
		if ok {
			return
		}
		if as.Fault == nil || tries > 0 {
			panic(fmt.Sprintf("memory: unhandled %s fault on page %d (prot %s)",
				accessName(write), vpn, prot))
		}
		as.Fault(p, vpn, write)
	}
}

func accessName(write bool) string {
	if write {
		return "write"
	}
	return "read"
}

// Read copies n bytes at addr into buf, honoring protection. The access
// must not cross a page boundary unless all pages are readable; it is
// split internally per page.
func (as *AddressSpace) Read(p *sim.Proc, addr Addr, buf []byte) {
	for len(buf) > 0 {
		vpn := addr.VPN()
		as.ensure(p, vpn, false)
		off := addr.Offset()
		n := copy(buf, as.pages[vpn].data[off:])
		buf = buf[n:]
		addr += Addr(n)
	}
}

// Write copies buf to addr, honoring protection and firing the snoop
// hook per page-contiguous chunk.
func (as *AddressSpace) Write(p *sim.Proc, addr Addr, buf []byte) {
	for len(buf) > 0 {
		vpn := addr.VPN()
		as.ensure(p, vpn, true)
		off := addr.Offset()
		n := copy(as.own(vpn)[off:], buf)
		if as.Snoop != nil {
			as.Snoop(addr, n)
		}
		buf = buf[n:]
		addr += Addr(n)
	}
}

// ReadUint32 reads a little-endian 32-bit word.
func (as *AddressSpace) ReadUint32(p *sim.Proc, addr Addr) uint32 {
	vpn := addr.VPN()
	as.ensure(p, vpn, false)
	off := addr.Offset()
	if off+4 <= PageSize {
		return binary.LittleEndian.Uint32(as.pages[vpn].data[off:])
	}
	var b [4]byte
	as.Read(p, addr, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// WriteUint32 writes a little-endian 32-bit word.
func (as *AddressSpace) WriteUint32(p *sim.Proc, addr Addr, v uint32) {
	vpn := addr.VPN()
	as.ensure(p, vpn, true)
	off := addr.Offset()
	if off+4 <= PageSize {
		binary.LittleEndian.PutUint32(as.own(vpn)[off:], v)
		if as.Snoop != nil {
			as.Snoop(addr, 4)
		}
		return
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	as.Write(p, addr, b[:])
}

// ReadUint64 reads a little-endian 64-bit word.
func (as *AddressSpace) ReadUint64(p *sim.Proc, addr Addr) uint64 {
	vpn := addr.VPN()
	as.ensure(p, vpn, false)
	off := addr.Offset()
	if off+8 <= PageSize {
		return binary.LittleEndian.Uint64(as.pages[vpn].data[off:])
	}
	var b [8]byte
	as.Read(p, addr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// WriteUint64 writes a little-endian 64-bit word.
func (as *AddressSpace) WriteUint64(p *sim.Proc, addr Addr, v uint64) {
	vpn := addr.VPN()
	as.ensure(p, vpn, true)
	off := addr.Offset()
	if off+8 <= PageSize {
		binary.LittleEndian.PutUint64(as.own(vpn)[off:], v)
		if as.Snoop != nil {
			as.Snoop(addr, 8)
		}
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	as.Write(p, addr, b[:])
}

// DMARead copies n bytes at addr into buf without protection checks or
// snooping: the path taken by the NIC's outgoing DMA engine.
func (as *AddressSpace) DMARead(addr Addr, buf []byte) {
	for len(buf) > 0 {
		vpn := addr.VPN()
		as.check(vpn)
		off := addr.Offset()
		n := copy(buf, as.pages[vpn].data[off:])
		buf = buf[n:]
		addr += Addr(n)
	}
}

// DMAWrite copies buf to addr without protection checks or snooping:
// the path taken by the NIC's incoming DMA engine. (The real snoop
// hardware sees these bus transactions too, but SHRIMP never AU-binds
// receive-buffer pages, so the distinction is unobservable; we document
// rather than model it.)
func (as *AddressSpace) DMAWrite(addr Addr, buf []byte) {
	for len(buf) > 0 {
		vpn := addr.VPN()
		as.check(vpn)
		off := addr.Offset()
		n := copy(as.own(vpn)[off:], buf)
		buf = buf[n:]
		addr += Addr(n)
	}
}
