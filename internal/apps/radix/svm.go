package radix

import (
	"shrimp/internal/machine"
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

// SVMRegionBytes sizes the shared region a Radix-SVM run needs: the two
// key arrays StartSVM allocates, a fixed 512 KB for the per-rank
// histogram rows, and slack for page rounding.
func SVMRegionBytes(pr Params) int {
	return 8*pr.Keys + 64*8192 + 1<<16
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

	// Shared layout: two key arrays (ping-pong) and the histogram
	// matrix, one page-aligned row per rank to keep the histogram
	// exchange itself from false sharing.
	offA := s.AllocPages((4*n + svm.PageSize - 1) / svm.PageSize)
	offB := s.AllocPages((4*n + svm.PageSize - 1) / svm.PageSize)
	histRow := (4*pr.Radix + svm.PageSize - 1) / svm.PageSize * svm.PageSize
	offHist := s.AllocPages(histRow / svm.PageSize * nprocs)

	warm := s.M().RunParallel("radix-svm-init", func(nd *machine.Node, p *sim.Proc) {
		rt := s.Runtime(int(nd.ID))
		lo, hi := split(n, nprocs, rt.Rank())
		// Initialization: each rank writes its share of the source keys.
		for i := lo; i < hi; i++ {
			rt.WriteUint32(p, offA+4*i, keys[i])
		}
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
				for i := lo; i < hi; i++ {
					k := rt.ReadUint32(p, src+4*i)
					d := digit(k, pass, pr.Radix)
					rt.WriteUint32(p, dst+4*offsets[d], k)
					offsets[d]++
					nd.CPUFor(p).Charge(3 * pr.KeyCost / 4)
				}
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

// countKeys returns an order-independent checksum of a key multiset.
func countKeys(keys []uint32) uint64 {
	var sum uint64
	for _, k := range keys {
		sum += uint64(k)*2654435761 + 97
	}
	return sum
}
