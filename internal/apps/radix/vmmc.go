package radix

import (
	"encoding/binary"
	"fmt"

	"shrimp/internal/machine"
	"shrimp/internal/memory"
	"shrimp/internal/sim"
	"shrimp/internal/vmmc"
)

// Mechanism selects the key-distribution mechanism of Radix-VMMC (§3):
// the automatic-update version places keys directly into remote arrays
// through AU mappings; the deliberate-update version gathers keys into
// large messages that remote processors scatter.
type Mechanism int

const (
	// AU distributes keys by storing through automatic-update bindings.
	AU Mechanism = iota
	// DU gathers per-destination messages sent by deliberate update.
	DU
)

func (m Mechanism) String() string {
	if m == AU {
		return "AU"
	}
	return "DU"
}

// vmmcRank holds one rank's communication state for Radix-VMMC.
type vmmcRank struct {
	rank int
	nd   *machine.Node
	ep   *vmmc.Endpoint

	segLo, segHi int // my destination segment [lo,hi) in global key index

	dstExp    *vmmc.Export   // my destination segment (keys land here)
	dstImp    []*vmmc.Import // imports of every peer's destination export
	auBase    []memory.Addr  // AU shadow of each peer's destination (AU mode)
	histExp   *vmmc.Export   // rows of peer histograms + arrival flags
	histImp   []*vmmc.Import
	syncExp   *vmmc.Export // barrier flags
	syncImp   []*vmmc.Import
	gatherExp *vmmc.Export // DU mode: staging area, one block per sender
	gatherImp []*vmmc.Import
	scratch   memory.Addr // local staging for DU sends
	seen      int64
	barEpoch  int // monotonic barrier counter (same sequence on all ranks)

	// What the current wait polls for: the peer count, the flag value
	// wanted, and the histogram row width. The ready tests below read
	// them and are bound once per rank, so a WaitFor allocates nothing.
	nprocs        int
	want          uint32
	rowWords      int
	sendersReady  func(*sim.Proc) bool
	rowsReady     func(*sim.Proc) bool
	arrivedReady  func(*sim.Proc) bool
	releasedReady func(*sim.Proc) bool
}

// RunVMMC executes Radix-VMMC over a machine using the given mechanism
// and returns the parallel execution time.
func RunVMMC(sys *vmmc.System, mech Mechanism, pr Params) sim.Time {
	return StartVMMC(sys, mech, pr)()
}

// StartVMMC runs the warmup prefix of Radix-VMMC (buffer exports and
// imports, AU bindings, and the first barrier), which leaves the run at
// the boundary where knobs land. The returned body runs the sort passes
// and validation and returns the total parallel execution time (warmup
// plus body).
func StartVMMC(sys *vmmc.System, mech Mechanism, pr Params) func() sim.Time {
	nprocs := len(sys.EPs)
	n := pr.Keys
	radix := pr.Radix

	histRowWords := radix + 1 // counts + arrival flag
	keys := generate(pr)
	gatherBlock := (n/nprocs + 1) * 8 // worst-case (idx,key) pairs from one sender

	// Setup: exports first, then imports and AU bindings.
	ranks := make([]*vmmcRank, nprocs)
	for r := 0; r < nprocs; r++ {
		lo, hi := split(n, nprocs, r)
		rk := &vmmcRank{rank: r, nd: sys.M.Nodes[r], ep: sys.EP(r), segLo: lo, segHi: hi, nprocs: nprocs}
		rk.sendersReady = rk.sendersDone
		rk.rowsReady = rk.rowsArrived
		rk.arrivedReady = rk.allArrived
		rk.releasedReady = rk.released
		rk.dstExp = rk.ep.Export(nil, (4*(hi-lo)+memory.PageSize-1)/memory.PageSize+1)
		rk.histExp = rk.ep.Export(nil, (4*histRowWords*nprocs+memory.PageSize-1)/memory.PageSize+1)
		rk.syncExp = rk.ep.Export(nil, 1)
		rk.gatherExp = rk.ep.Export(nil, (gatherBlock*nprocs+memory.PageSize-1)/memory.PageSize+1)
		rk.scratch = rk.nd.Mem.AllocBytes(gatherBlock + memory.PageSize)
		ranks[r] = rk
	}
	for r := 0; r < nprocs; r++ {
		rk := ranks[r]
		rk.dstImp = make([]*vmmc.Import, nprocs)
		rk.histImp = make([]*vmmc.Import, nprocs)
		rk.syncImp = make([]*vmmc.Import, nprocs)
		rk.gatherImp = make([]*vmmc.Import, nprocs)
		rk.auBase = make([]memory.Addr, nprocs)
		for o := 0; o < nprocs; o++ {
			if o == r {
				continue
			}
			rk.dstImp[o] = rk.ep.Import(nil, ranks[o].dstExp)
			rk.histImp[o] = rk.ep.Import(nil, ranks[o].histExp)
			rk.syncImp[o] = rk.ep.Import(nil, ranks[o].syncExp)
			rk.gatherImp[o] = rk.ep.Import(nil, ranks[o].gatherExp)
			if mech == AU {
				shadow := rk.nd.Mem.Alloc(rk.dstImp[o].PageCnt)
				rk.dstImp[o].BindAU(nil, shadow, 0, rk.dstImp[o].PageCnt, true, false)
				rk.auBase[o] = shadow
			}
		}
	}
	warm := sys.M.RunParallel("radix-vmmc-init", func(nd *machine.Node, p *sim.Proc) {
		ranks[nd.ID].barrier(p, nprocs)
	})
	return func() sim.Time {
		final := make([][]uint32, nprocs)
		elapsed := sys.M.RunParallel("radix-vmmc", func(nd *machine.Node, p *sim.Proc) {
			rk := ranks[nd.ID]
			cpu := nd.CPUFor(p)
			mine := append([]uint32(nil), keys[rk.segLo:rk.segHi]...)

			for pass := 0; pass < pr.Iters; pass++ {
				// Local histogram.
				hist := make([]uint32, radix)
				for _, k := range mine {
					hist[digit(k, pass, radix)]++
					cpu.Charge(pr.KeyCost / 4)
				}
				// Exchange histogram rows (each row ends with a flag word).
				rowOff := rk.rank * histRowWords * 4
				row := make([]byte, histRowWords*4)
				for d, c := range hist {
					binary.LittleEndian.PutUint32(row[4*d:], c)
				}
				binary.LittleEndian.PutUint32(row[4*radix:], uint32(pass+1))
				// Stage locally, then deliberate-update to every peer.
				rk.stage(p, row)
				for o := 0; o < nprocs; o++ {
					if o == rk.rank {
						nd.Mem.DMAWrite(rk.histExp.Base+memory.Addr(rowOff), row)
						continue
					}
					rk.histImp[o].Send(p, rk.scratch, rowOff, len(row), vmmc.SendOpts{})
				}
				// Wait for all rows of this pass (poll the flag words).
				allHist := rk.waitHistRows(p, nprocs, histRowWords, pass+1)

				// Global offsets for my keys.
				offsets := make([]int, radix)
				pos := 0
				for d := 0; d < radix; d++ {
					for o := 0; o < nprocs; o++ {
						if o == rk.rank {
							offsets[d] = pos
						}
						pos += int(allHist[o][d])
					}
				}

				// Distribute keys, then publish per-destination completion
				// flags on the same channel as the data so they cannot
				// overtake it (the ordering discipline §4.2 requires when
				// mixing AU and DU).
				switch mech {
				case AU:
					rk.distributeAU(p, mine, pass, radix, offsets, ranks, pr)
					rk.ep.FenceAU(p)
				case DU:
					rk.distributeDU(p, mine, pass, radix, offsets, ranks, pr, gatherBlock)
				}
				rk.publishDone(p, nprocs, pass, ranks)
				rk.waitSenders(p, pass)
				if mech == DU {
					rk.scatterDU(p, nprocs, gatherBlock, pr)
				}

				// My new working set is my destination segment.
				mine = mine[:0]
				for i := 0; i < rk.segHi-rk.segLo; i++ {
					mine = append(mine, nd.Mem.ReadUint32(p, rk.dstExp.Base+memory.Addr(4*i)))
					cpu.Charge(nd.M.Cfg.Cost.LoadCost)
				}
				rk.barrier(p, nprocs)
			}
			final[rk.rank] = mine
		})

		// Validate the concatenation.
		var all []uint32
		for _, seg := range final {
			all = append(all, seg...)
		}
		if len(all) != n {
			panic(fmt.Sprintf("radix-vmmc: %d keys out, %d in", len(all), n))
		}
		if err := checkSorted(all); err != nil {
			panic(err)
		}
		if countKeys(all) != countKeys(keys) {
			panic("radix-vmmc: key multiset changed")
		}
		return warm + elapsed
	}
}

// distributeAU writes each key directly into its destination segment
// through the automatic-update shadow (or locally for own keys), one
// StoreUint32 per key, as a word run.
func (rk *vmmcRank) distributeAU(p *sim.Proc, mine []uint32, pass, radix int, offsets []int, ranks []*vmmcRank, pr Params) {
	s := &auScatter{rk: rk, cpu: rk.nd.CPUFor(p), keys: mine, pass: pass, radix: radix,
		offsets: offsets, ranks: ranks, cost: pr.KeyCost / 2}
	rk.nd.StoreWords(p, 4, s)
}

// auScatter makes distributeAU's stores, one key at a time: the key's
// destination and its compute charge, the body of the per-key loop
// before its store.
type auScatter struct {
	rk          *vmmcRank
	cpu         *machine.CPU
	keys        []uint32 // keys not yet placed
	pass, radix int
	offsets     []int
	ranks       []*vmmcRank
	cost        sim.Time
}

// NextWord places the next key. It loads nothing, so it never needs the
// process before the run's end.
func (s *auScatter) NextWord(inline bool) (memory.Addr, uint64, bool) {
	if len(s.keys) == 0 {
		return 0, 0, false
	}
	k := s.keys[0]
	s.keys = s.keys[1:]
	d := digit(k, s.pass, s.radix)
	g := s.offsets[d]
	s.offsets[d]++
	o := ownerOf(g, s.ranks)
	local := memory.Addr(4 * (g - s.ranks[o].segLo))
	s.cpu.Charge(s.cost)
	if o == s.rk.rank {
		return s.rk.dstExp.Base + local, uint64(k), true
	}
	return s.rk.auBase[o] + local, uint64(k), true
}

// distributeDU gathers (index,key) pairs per destination and ships them
// as large deliberate-update messages into the owners' staging blocks.
func (rk *vmmcRank) distributeDU(p *sim.Proc, mine []uint32, pass, radix int, offsets []int, ranks []*vmmcRank, pr Params, gatherBlock int) {
	nd := rk.nd
	cpu := nd.CPUFor(p)
	nprocs := len(ranks)
	bufs := make([][]byte, nprocs)
	for _, k := range mine {
		d := digit(k, pass, radix)
		g := offsets[d]
		offsets[d]++
		o := ownerOf(g, ranks)
		local := uint32(g - ranks[o].segLo)
		cpu.Charge(pr.KeyCost / 2)
		if o == rk.rank {
			nd.Mem.WriteUint32(p, rk.dstExp.Base+memory.Addr(4*local), k)
			cpu.Charge(nd.M.Cfg.Cost.StoreCost)
			continue
		}
		var pair [8]byte
		binary.LittleEndian.PutUint32(pair[0:], local)
		binary.LittleEndian.PutUint32(pair[4:], k)
		bufs[o] = append(bufs[o], pair[:]...)
		cpu.Charge(nd.M.Cfg.Cost.CopyTime(8)) // gather copy
	}
	for o := 0; o < nprocs; o++ {
		if o == rk.rank {
			continue
		}
		// Block layout: [count u32][pairs...]; block index = my rank.
		blk := make([]byte, 4+len(bufs[o]))
		binary.LittleEndian.PutUint32(blk, uint32(len(bufs[o])/8))
		copy(blk[4:], bufs[o])
		rk.stage(p, blk)
		rk.gatherImp[o].Send(p, rk.scratch, rk.rank*gatherBlock, len(blk), vmmc.SendOpts{})
	}
}

// scatterDU unpacks every sender's staged block into the destination
// segment.
func (rk *vmmcRank) scatterDU(p *sim.Proc, nprocs, gatherBlock int, pr Params) {
	nd := rk.nd
	cpu := nd.CPUFor(p)
	for s := 0; s < nprocs; s++ {
		if s == rk.rank {
			continue
		}
		base := rk.gatherExp.Base + memory.Addr(s*gatherBlock)
		count := nd.Mem.ReadUint32(p, base)
		for i := 0; i < int(count); i++ {
			local := nd.Mem.ReadUint32(p, base+memory.Addr(4+8*i))
			key := nd.Mem.ReadUint32(p, base+memory.Addr(8+8*i))
			nd.Mem.WriteUint32(p, rk.dstExp.Base+memory.Addr(4*local), key)
			cpu.Charge(pr.KeyCost / 4) // scatter work
		}
		// Clear the count for the next pass.
		nd.Mem.WriteUint32(p, base, 0)
	}
}

// stage writes data into the local scratch buffer, first waiting for
// any in-flight deliberate updates that may still be reading it (sends
// are asynchronous: the DMA engine snapshots memory at transfer time).
func (rk *vmmcRank) stage(p *sim.Proc, data []byte) {
	rk.ep.WaitSendsDone(p)
	rk.nd.Mem.Write(p, rk.scratch, data)
	rk.nd.CPUFor(p).Charge(rk.nd.M.Cfg.Cost.CopyTime(len(data)))
}

// flagOff returns the byte offset of the completion-flag area in a
// destination export (its reserved last page).
func (rk *vmmcRank) flagOff() int { return (rk.dstExp.PageCnt - 1) * memory.PageSize }

// publishDone writes this pass's completion flag into every peer's
// destination export, on the same source->destination channel as the
// key data, so the flag arrives strictly after the keys.
func (rk *vmmcRank) publishDone(p *sim.Proc, nprocs, pass int, ranks []*vmmcRank) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], uint32(pass+1))
	rk.stage(p, buf[:])
	for o := 0; o < nprocs; o++ {
		if o == rk.rank {
			continue
		}
		off := ranks[o].flagOff() + 4*rk.rank
		rk.dstImp[o].Send(p, rk.scratch, off, 4, vmmc.SendOpts{})
	}
}

// waitSenders blocks until every peer's completion flag for this pass
// has arrived in our destination export.
func (rk *vmmcRank) waitSenders(p *sim.Proc, pass int) {
	rk.want = uint32(pass + 1)
	rk.dstExp.WaitFor(p, -1, rk.sendersReady)
}

// sendersDone is waitSenders' ready test.
func (rk *vmmcRank) sendersDone(*sim.Proc) bool {
	for s := 0; s < rk.nprocs; s++ {
		if s == rk.rank {
			continue
		}
		if rk.nd.Mem.ReadUint32(nil, rk.dstExp.Base+memory.Addr(rk.flagOff()+4*s)) < rk.want {
			return false
		}
	}
	return true
}

// waitHistRows polls until every rank's histogram row for this pass has
// arrived, then returns the matrix.
func (rk *vmmcRank) waitHistRows(p *sim.Proc, nprocs, rowWords, want int) [][]uint32 {
	nd := rk.nd
	rk.want, rk.rowWords = uint32(want), rowWords
	rk.seen = rk.histExp.WaitFor(p, rk.seen, rk.rowsReady)
	rows := make([][]uint32, nprocs)
	for o := 0; o < nprocs; o++ {
		rows[o] = make([]uint32, rowWords-1)
		for d := range rows[o] {
			rows[o][d] = nd.Mem.ReadUint32(nil, rk.histExp.Base+memory.Addr((o*rowWords+d)*4))
		}
		nd.CPUFor(p).Charge(nd.M.Cfg.Cost.LoadCost * sim.Time(rowWords))
	}
	return rows
}

// rowsArrived is waitHistRows' ready test: every row's trailing flag
// word holds the pass wanted.
func (rk *vmmcRank) rowsArrived(*sim.Proc) bool {
	for o := 0; o < rk.nprocs; o++ {
		if rk.nd.Mem.ReadUint32(nil, rk.histExp.Base+memory.Addr((o*rk.rowWords+rk.rowWords-1)*4)) != rk.want {
			return false
		}
	}
	return true
}

// barrier is a flag-based VMMC barrier: everyone writes an epoch word
// into rank 0's sync page; rank 0 releases by writing epochs back. The
// epoch counter is per-rank and advances identically everywhere, so
// words are unique across successive barriers.
func (rk *vmmcRank) barrier(p *sim.Proc, nprocs int) {
	if nprocs == 1 {
		return
	}
	rk.barEpoch++
	word := uint32(rk.barEpoch)
	rk.want = word
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], word)
	if rk.rank == 0 {
		rk.syncExp.WaitFor(p, -1, rk.arrivedReady)
		rk.stage(p, buf[:])
		for o := 1; o < nprocs; o++ {
			rk.syncImp[o].Send(p, rk.scratch, 0, 4, vmmc.SendOpts{})
		}
		return
	}
	rk.stage(p, buf[:])
	rk.syncImp[0].Send(p, rk.scratch, 4*rk.rank, 4, vmmc.SendOpts{})
	rk.syncExp.WaitFor(p, -1, rk.releasedReady)
}

// allArrived is rank 0's barrier ready test: every other rank's word
// holds this barrier's epoch.
func (rk *vmmcRank) allArrived(*sim.Proc) bool {
	for o := 1; o < rk.nprocs; o++ {
		if rk.nd.Mem.ReadUint32(nil, rk.syncExp.Base+memory.Addr(4*o)) != rk.want {
			return false
		}
	}
	return true
}

// released is the other ranks' barrier ready test: rank 0 wrote this
// barrier's epoch back.
func (rk *vmmcRank) released(*sim.Proc) bool {
	return rk.nd.Mem.ReadUint32(nil, rk.syncExp.Base) == rk.want
}

// ownerOf returns the rank whose destination segment contains global
// index g.
func ownerOf(g int, ranks []*vmmcRank) int {
	for r, rk := range ranks {
		if g >= rk.segLo && g < rk.segHi {
			return r
		}
	}
	panic(fmt.Sprintf("radix: index %d outside all segments", g))
}
