package memory

import (
	"bytes"
	"sync"
	"testing"
)

// onZeroPage reports whether page vpn still reads through the shared
// zero page.
func onZeroPage(as *AddressSpace, vpn int) bool {
	return as.pages[vpn].data == zeroPage
}

func checkZeroPageClean(t *testing.T) {
	t.Helper()
	if *zeroPage != [PageSize]byte{} {
		t.Fatal("the shared zero page was written")
	}
}

// A page that was never written reads as zeros from the shared zero
// page: no read path allocates or takes a page from the pool.
func TestUnwrittenPageReadsZeroWithoutAllocating(t *testing.T) {
	as := NewAddressSpace()
	base := as.Alloc(4)
	res0, _ := PoolStats()
	buf := make([]byte, 64)
	var w32 uint32
	var w64 uint64
	allocs := testing.AllocsPerRun(100, func() {
		as.Read(nil, base+PageSize+10, buf)
		as.Read(nil, base+2*PageSize-8, buf) // crosses into the next page
		w32 = as.ReadUint32(nil, base+3*PageSize-2)
		w64 = as.ReadUint64(nil, base+8)
		as.DMARead(base+3*PageSize, buf)
	})
	if allocs != 0 {
		t.Fatalf("reading unwritten pages allocates %.1f objects per run, want 0", allocs)
	}
	if !bytes.Equal(buf, make([]byte, len(buf))) || w32 != 0 || w64 != 0 {
		t.Fatalf("unwritten pages read %v, %#x, %#x; want zeros", buf, w32, w64)
	}
	if res, _ := PoolStats(); res != res0 {
		t.Fatalf("reads took %d pages from the pool", res-res0)
	}
	for vpn := base.VPN(); vpn < as.Pages(); vpn++ {
		if as.pages[vpn].dirty || !onZeroPage(as, vpn) {
			t.Fatalf("page %d left the zero page after reads only", vpn)
		}
	}
}

// Every write path gives the written page private backing before it
// writes, so the bytes land in that page alone and the shared zero page
// stays all zero.
func TestEveryWritePathTakesPrivateBacking(t *testing.T) {
	paths := []struct {
		name  string
		write func(as *AddressSpace, addr Addr)
		want  []byte // bytes expected at addr afterwards
	}{
		{"Write", func(as *AddressSpace, a Addr) { as.Write(nil, a, []byte{1, 2, 3}) }, []byte{1, 2, 3}},
		{"WriteUint32", func(as *AddressSpace, a Addr) { as.WriteUint32(nil, a, 0x04030201) }, []byte{1, 2, 3, 4}},
		{"WriteUint64", func(as *AddressSpace, a Addr) { as.WriteUint64(nil, a, 0x0807060504030201) },
			[]byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{"DMAWrite", func(as *AddressSpace, a Addr) { as.DMAWrite(a, []byte{9, 8}) }, []byte{9, 8}},
		{"PageData", func(as *AddressSpace, a Addr) { as.PageData(a.VPN())[a.Offset()] = 5 }, []byte{5}},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			as := NewAddressSpace()
			base := as.Alloc(3)
			target := base + PageSize + 40
			res0, _ := PoolStats()
			p.write(as, target)
			checkZeroPageClean(t)
			vpn := target.VPN()
			if !as.pages[vpn].dirty || onZeroPage(as, vpn) {
				t.Fatalf("%s left page %d on the zero page", p.name, vpn)
			}
			if res, _ := PoolStats(); res != res0+1 {
				t.Fatalf("%s took %d pages from the pool, want 1", p.name, res-res0)
			}
			for _, other := range []int{base.VPN(), base.VPN() + 2} {
				if as.pages[other].dirty || !onZeroPage(as, other) {
					t.Fatalf("%s gave unwritten page %d private backing", p.name, other)
				}
			}
			got := make([]byte, len(p.want))
			as.Read(nil, target, got)
			if !bytes.Equal(got, p.want) {
				t.Fatalf("%s: read back %v, want %v", p.name, got, p.want)
			}
			as.Release()
			if res, _ := PoolStats(); res != res0 {
				t.Fatalf("Release left %d pages resident", res-res0)
			}
		})
	}
}

// Pages are pooled one by one, not by address-space size: spaces of
// alternating sizes, written and released in turn, reuse the same
// buffers, so the pool never grows past the most pages written at once.
func TestPoolReuseIsSizeAgnostic(t *testing.T) {
	res0, free0 := PoolStats()
	maxWritten := 0
	for round, n := range []int{3, 17, 5, 40, 1, 64, 2, 33, 9, 64, 3, 17} {
		as := NewAddressSpace()
		base := as.Alloc(n)
		written := 0
		for i := round % 2; i < n; i += 2 {
			as.WriteUint32(nil, base+Addr(i*PageSize), uint32(round+1))
			written++
		}
		maxWritten = max(maxWritten, written)
		if res, _ := PoolStats(); res != res0+written {
			t.Fatalf("round %d: %d pages resident, want %d", round, res-res0, written)
		}
		as.Release()
	}
	res, free := PoolStats()
	if res != res0 {
		t.Fatalf("%d pages still resident after every space was released", res-res0)
	}
	if grown := free - free0; grown > maxWritten {
		t.Fatalf("pool grew by %d pages; at most %d were written at once", grown, maxWritten)
	}
	checkZeroPageClean(t)
}

// Workers share the one page pool: address spaces written and released
// from several goroutines at once each get pages of their own, and
// every page comes back.
func TestPoolConcurrentSpaces(t *testing.T) {
	res0, _ := PoolStats()
	const workers, rounds = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				as := NewAddressSpace()
				base := as.Alloc(1 + (w+r)%7)
				for vpn := base.VPN(); vpn < as.Pages(); vpn++ {
					as.WriteUint32(nil, Addr(vpn*PageSize), uint32(w<<16|r))
				}
				for vpn := base.VPN(); vpn < as.Pages(); vpn++ {
					if v := as.ReadUint32(nil, Addr(vpn*PageSize)); v != uint32(w<<16|r) {
						t.Errorf("worker %d round %d: page %d reads %#x", w, r, vpn, v)
					}
				}
				as.Release()
			}
		}(w)
	}
	wg.Wait()
	if res, _ := PoolStats(); res != res0 {
		t.Fatalf("%d pages still resident after every worker released", res-res0)
	}
	checkZeroPageClean(t)
}
