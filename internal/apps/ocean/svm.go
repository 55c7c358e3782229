package ocean

import (
	"shrimp/internal/machine"
	"shrimp/internal/sim"
	"shrimp/internal/svm"
)

// RunSVM executes Ocean-SVM: the grid lives in the shared region, work
// is split into blocks of contiguous rows, and nearest-neighbor
// communication happens through the boundary pages shared by adjacent
// blocks (§3). The result is validated against the sequential solver.
func RunSVM(s *svm.System, pr Params) sim.Time {
	return StartSVM(s, pr)()
}

// SVMRegionBytes sizes the shared region an Ocean-SVM run needs: the
// (N+2)x(N+2) grid StartSVM allocates, with slack for page rounding.
func SVMRegionBytes(pr Params) int {
	s := pr.N + 2
	return 8*s*s + 1<<16
}

// StartSVM runs the warmup prefix of Ocean-SVM (grid layout, per-rank
// initialization, and the first barrier), which leaves the run at the
// boundary where knobs land. The returned body runs the red-black
// iterations and validation and returns the total parallel execution
// time (warmup plus body).
func StartSVM(s *svm.System, pr Params) func() sim.Time {
	stride := pr.stride()
	nprocs := s.Nodes()
	gridOff := s.AllocPages((8*stride*stride + svm.PageSize - 1) / svm.PageSize)
	cell := func(r, c int) int { return gridOff + 8*(r*stride+c) }

	init := initial(pr)
	warm := s.M().RunParallel("ocean-svm-init", func(nd *machine.Node, p *sim.Proc) {
		rt := s.Runtime(int(nd.ID))
		lo, hi := rowsFor(pr.N, nprocs, rt.Rank())

		// Each rank initializes its rows (plus rank 0 takes the boundary
		// rows and columns).
		for r := lo; r < hi; r++ {
			for c := 0; c < stride; c++ {
				rt.WriteFloat64(p, cell(r, c), init[r*stride+c])
			}
		}
		if rt.Rank() == 0 {
			for c := 0; c < stride; c++ {
				rt.WriteFloat64(p, cell(0, c), init[c])
				rt.WriteFloat64(p, cell(stride-1, c), init[(stride-1)*stride+c])
			}
		}
		rt.Barrier(p)
	})
	return func() sim.Time {
		elapsed := s.M().RunParallel("ocean-svm", func(nd *machine.Node, p *sim.Proc) {
			rt := s.Runtime(int(nd.ID))
			lo, hi := rowsFor(pr.N, nprocs, rt.Rank())
			for it := 0; it < pr.Iters; it++ {
				for color := 0; color < 2; color++ {
					for r := lo; r < hi; r++ {
						for c := 1; c <= pr.N; c++ {
							if (r+c)%2 != color {
								continue
							}
							up := rt.ReadFloat64(p, cell(r-1, c))
							down := rt.ReadFloat64(p, cell(r+1, c))
							left := rt.ReadFloat64(p, cell(r, c-1))
							right := rt.ReadFloat64(p, cell(r, c+1))
							rt.WriteFloat64(p, cell(r, c), 0.25*(up+down+left+right))
							nd.CPUFor(p).Charge(pr.CellCost)
						}
					}
					rt.Barrier(p)
				}
			}
		})

		// Gather the final grid through rank 0 and validate.
		got := make([]float64, stride*stride)
		s.M().RunParallel("ocean-svm-check", func(nd *machine.Node, p *sim.Proc) {
			if nd.ID != 0 {
				return
			}
			rt := s.Runtime(0)
			for i := range got {
				got[i] = rt.ReadFloat64(p, gridOff+8*i)
			}
		})
		validate(pr, got)
		return warm + elapsed
	}
}
