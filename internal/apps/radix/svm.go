package radix

import (
	"shrimp/internal/machine"
	"shrimp/internal/memory"
	"shrimp/internal/sim"
	"shrimp/internal/svm"
)

// RunSVM executes Radix-SVM on an existing shared-memory system and
// returns the parallel execution time. The dominant phase is the key
// permutation: each rank writes its keys to highly scattered positions
// of the destination array, the pattern that induces page-granularity
// write-write false sharing (§3).
func RunSVM(s *svm.System, pr Params) sim.Time {
	return StartSVM(s, pr)()
}

// SVMRegionBytes sizes the shared region of a Radix-SVM run on nodes
// ranks: svmLayout's two key arrays and histogram rows (512 KB of rows
// at least), and slack for page rounding.
func SVMRegionBytes(pr Params, nodes int) int {
	return 8*pr.Keys + max(64*8192, nodes*histRowBytes(pr)) + 1<<16
}

// histRowBytes is one rank's histogram row, rounded up to whole pages
// to keep the histogram exchange itself from false sharing.
func histRowBytes(pr Params) int {
	return (4*pr.Radix + svm.PageSize - 1) / svm.PageSize * svm.PageSize
}

// svmLayout reserves two key arrays (ping-pong) and the histogram
// matrix, one row per rank, returning their offsets and the row size.
func svmLayout(s *svm.System, pr Params, nprocs int) (offA, offB, offHist, histRow int) {
	keyPages := (4*pr.Keys + svm.PageSize - 1) / svm.PageSize
	offA = s.AllocPages(keyPages)
	offB = s.AllocPages(keyPages)
	histRow = histRowBytes(pr)
	offHist = s.AllocPages(histRow / svm.PageSize * nprocs)
	return offA, offB, offHist, histRow
}

// StartSVM runs the warmup prefix of Radix-SVM (shared layout, each
// rank's key initialization, and the first barrier), which leaves the
// run at the boundary where knobs land. The returned body runs the sort
// passes and validation and returns the total parallel execution time
// (warmup plus body).
func StartSVM(s *svm.System, pr Params) func() sim.Time {
	n := pr.Keys
	nprocs := s.Nodes()
	keys := generate(pr)

	offA, offB, offHist, histRow := svmLayout(s, pr, nprocs)

	warm := s.M().RunParallel("radix-svm-init", func(nd *machine.Node, p *sim.Proc) {
		rt := s.Runtime(int(nd.ID))
		lo, hi := split(n, nprocs, rt.Rank())
		// Initialization: each rank writes its share of the source keys.
		nd.StoreWords(p, 4, &keyInit{rt: rt, keys: keys[lo:hi], off: offA + 4*lo})
		rt.Barrier(p)
	})
	return func() sim.Time {
		elapsed := s.M().RunParallel("radix-svm", func(nd *machine.Node, p *sim.Proc) {
			rt := s.Runtime(int(nd.ID))
			rank := rt.Rank()
			lo, hi := split(n, nprocs, rank)
			src, dst := offA, offB
			for pass := 0; pass < pr.Iters; pass++ {
				// Phase 1: local histogram over this rank's keys.
				hist := make([]int, pr.Radix)
				for i := lo; i < hi; i++ {
					k := rt.ReadUint32(p, src+4*i)
					hist[digit(k, pass, pr.Radix)]++
					nd.CPUFor(p).Charge(pr.KeyCost / 4)
				}
				// Publish the histogram row.
				myRow := offHist + rank*histRow
				for d := 0; d < pr.Radix; d++ {
					rt.WriteUint32(p, myRow+4*d, uint32(hist[d]))
				}
				rt.Barrier(p)

				// Phase 2: global prefix — every rank reads all rows and
				// computes its write offsets.
				offsets := make([]int, pr.Radix)
				pos := 0
				for d := 0; d < pr.Radix; d++ {
					for r := 0; r < nprocs; r++ {
						c := int(rt.ReadUint32(p, offHist+r*histRow+4*d))
						if r == rank {
							offsets[d] = pos
						}
						pos += c
					}
				}
				rt.Barrier(p)

				// Phase 3: permutation — the scattered, false-sharing-heavy
				// writes the paper highlights.
				nd.StoreWords(p, 4, &permutation{rt: rt, p: p, cpu: nd.CPUFor(p), lo: lo, i: lo, hi: hi,
					src: src, dst: dst, pass: pass, radix: pr.Radix, offsets: offsets, cost: 3 * pr.KeyCost / 4})
				rt.Barrier(p)
				src, dst = dst, src
			}
		})

		// Validate through rank 0's view of the final array.
		final := make([]uint32, n)
		rt0 := s.Runtime(0)
		s.M().RunParallel("radix-svm-check", func(nd *machine.Node, p *sim.Proc) {
			if nd.ID != 0 {
				return
			}
			src := offA
			if pr.Iters%2 == 1 {
				src = offB
			}
			for i := 0; i < n; i++ {
				final[i] = rt0.ReadUint32(p, src+4*i)
			}
		})
		if err := checkSorted(final); err != nil {
			panic(err)
		}
		if countKeys(final) != countKeys(keys) {
			panic("radix: keys lost or duplicated in SVM sort")
		}
		return warm + elapsed
	}
}

// permutation makes Radix-SVM's phase-3 stores, one key at a time, as
// the per-key loop does: load the key, store it at its digit's next
// destination slot, then charge the key's compute.
type permutation struct {
	rt        *svm.Runtime
	p         *sim.Proc
	cpu       *machine.CPU
	lo, i, hi int // keys [lo, hi) of the source array; i is the next
	src, dst  int
	pass      int
	radix     int
	offsets   []int
	cost      sim.Time
}

// NextWord charges the previous key's compute, loads the next key and
// returns its store. In a step it stops before a load from a page with
// no access, whose fault handler fetches the page, and at the end.
func (s *permutation) NextWord(inline bool) (memory.Addr, uint64, bool) {
	if inline && (s.i == s.hi || !s.rt.Node().Loadable(s.rt.Addr(s.src+4*s.i))) {
		return 0, 0, false
	}
	if s.i > s.lo {
		s.cpu.Charge(s.cost)
	}
	if s.i == s.hi {
		return 0, 0, false
	}
	k := s.rt.ReadUint32(s.p, s.src+4*s.i)
	s.i++
	d := digit(k, s.pass, s.radix)
	off := s.dst + 4*s.offsets[d]
	s.offsets[d]++
	return s.rt.Addr(off), uint64(k), true
}

// keyInit makes the warmup's stores: each key of a rank's share at its
// slot of the source array, in order, with no compute in between.
type keyInit struct {
	rt   *svm.Runtime
	keys []uint32 // keys not yet stored
	off  int      // region offset of the next key's slot
}

// NextWord stores the next key. It loads nothing, so it never needs the
// process before the run's end.
func (s *keyInit) NextWord(inline bool) (memory.Addr, uint64, bool) {
	if len(s.keys) == 0 {
		return 0, 0, false
	}
	k := s.keys[0]
	s.keys = s.keys[1:]
	addr := s.rt.Addr(s.off)
	s.off += 4
	return addr, uint64(k), true
}

// countKeys returns an order-independent checksum of a key multiset.
func countKeys(keys []uint32) uint64 {
	var sum uint64
	for _, k := range keys {
		sum += uint64(k)*2654435761 + 97
	}
	return sum
}
