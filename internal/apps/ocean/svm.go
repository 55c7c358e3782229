package ocean

import (
	"math"

	"shrimp/internal/machine"
	"shrimp/internal/memory"
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
			sweep := &stencil{rt: rt, p: p, cpu: nd.CPUFor(p), n: pr.N, stride: stride,
				grid: gridOff, cost: pr.CellCost}
			for it := 0; it < pr.Iters; it++ {
				for color := 0; color < 2; color++ {
					sweep.start(lo, hi, color)
					nd.StoreWords(p, 8, sweep)
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

// stencil makes one red-black half-sweep's stores over rows [lo, hi),
// one cell of the color at a time, as the per-cell loop does: load the
// four neighbors, store their average, then charge the cell's compute.
type stencil struct {
	rt      *svm.Runtime
	p       *sim.Proc
	cpu     *machine.CPU
	n       int // interior columns 1..n
	stride  int
	grid    int // region offset of cell (0, 0)
	cost    sim.Time
	r, c    int // the next cell, c possibly past n
	hi      int
	started bool // a cell was stored, so its compute is owed
}

// start aims the stencil at the first cell of color in rows [lo, hi).
func (s *stencil) start(lo, hi, color int) {
	s.r, s.hi, s.started = lo, hi, false
	s.c = 1
	if (lo+1)%2 != color {
		s.c = 2
	}
}

// cell is the region offset of cell (r, c).
func (s *stencil) cell(r, c int) int { return s.grid + 8*(r*s.stride+c) }

// NextWord charges the previous cell's compute, loads the next cell's
// neighbors and returns its store. In a step it stops before a load
// from a page with no access, whose fault handler fetches the page,
// and at the end.
func (s *stencil) NextWord(inline bool) (memory.Addr, uint64, bool) {
	for s.c > s.n && s.r < s.hi {
		// Next row: its first cell of the color is in the column of the
		// other parity (c past n keeps this row's parity).
		s.r++
		s.c = 1 + s.c%2
	}
	r, c := s.r, s.c
	if inline {
		if r >= s.hi {
			return 0, 0, false
		}
		nd := s.rt.Node()
		for _, off := range [4]int{s.cell(r-1, c), s.cell(r+1, c), s.cell(r, c-1), s.cell(r, c+1)} {
			if !nd.Loadable(s.rt.Addr(off)) {
				return 0, 0, false
			}
		}
	}
	if s.started {
		s.cpu.Charge(s.cost)
		s.started = false
	}
	if r >= s.hi {
		return 0, 0, false
	}
	up := s.rt.ReadFloat64(s.p, s.cell(r-1, c))
	down := s.rt.ReadFloat64(s.p, s.cell(r+1, c))
	left := s.rt.ReadFloat64(s.p, s.cell(r, c-1))
	right := s.rt.ReadFloat64(s.p, s.cell(r, c+1))
	s.c += 2
	s.started = true
	return s.rt.Addr(s.cell(r, c)), math.Float64bits(0.25 * (up + down + left + right)), true
}
