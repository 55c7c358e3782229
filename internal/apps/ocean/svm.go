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
	return StartSVM(s, pr).Finish()
}

// SVMRun is an Ocean-SVM instance that has completed its warmup prefix
// (grid layout, initialization, and the first barrier) and stands at
// the boundary where knobs land. Finish runs the solver body and
// validation.
type SVMRun struct {
	s       *svm.System
	pr      Params
	gridOff int
	warm    sim.Time
}

// StartSVM runs the warmup prefix of Ocean-SVM: grid layout, per-rank
// initialization, and the first barrier.
func StartSVM(s *svm.System, pr Params) *SVMRun {
	stride := pr.stride()
	nprocs := s.Nodes()
	run := &SVMRun{s: s, pr: pr}
	run.gridOff = s.AllocPages((8*stride*stride + svm.PageSize - 1) / svm.PageSize)
	cell := func(r, c int) int { return run.gridOff + 8*(r*stride+c) }

	init := initial(pr)
	run.warm = s.M().RunParallel("ocean-svm-init", func(nd *machine.Node, p *sim.Proc) {
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
	return run
}

// Finish runs the red-black iterations and validation, returning the
// total parallel execution time (warmup plus body).
func (run *SVMRun) Finish() sim.Time {
	s, pr, gridOff := run.s, run.pr, run.gridOff
	stride := pr.stride()
	nprocs := s.Nodes()
	cell := func(r, c int) int { return gridOff + 8*(r*stride+c) }

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
	return run.warm + elapsed
}
