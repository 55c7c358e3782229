package barnes

import (
	"math"

	"shrimp/internal/machine"
	"shrimp/internal/sim"
	"shrimp/internal/svm"
)

// Shared-region layout constants.
const (
	bodyBytes = 10 * 8    // mass, pos[3], vel[3], acc[3]
	cellBytes = 8*8 + 8*4 // 8 floats + 8 child words
	bboxLock  = 0         // lock id protecting the bounding box
)

// svmLayout records the shared-region offsets of a Barnes-SVM run.
type svmLayout struct {
	bodies   int // Bodies * bodyBytes
	cells    int // maxCells * cellBytes
	ctl      int // cell count + bounding box
	maxCells int
}

// SVMRegionBytes sizes the shared region a Barnes-SVM run needs: the
// bodies and cell pool layoutSVM allocates, with slack for page
// rounding and the control page.
func SVMRegionBytes(pr Params) int {
	return pr.Bodies*80 + (4*pr.Bodies+64)*96 + 1<<16
}

func layoutSVM(s *svm.System, pr Params) *svmLayout {
	l := &svmLayout{}
	l.maxCells = 4*pr.Bodies + 64
	l.bodies = s.AllocPages((pr.Bodies*bodyBytes + svm.PageSize - 1) / svm.PageSize)
	l.cells = s.AllocPages((l.maxCells*cellBytes + svm.PageSize - 1) / svm.PageSize)
	l.ctl = s.AllocPages(1)
	return l
}

func (l *svmLayout) bodyOff(i int) int { return l.bodies + i*bodyBytes }
func (l *svmLayout) cellOff(i int) int { return l.cells + i*cellBytes }

// Control-page fields.
func (l *svmLayout) cellCountOff() int { return l.ctl }
func (l *svmLayout) bboxOff(d int) int { return l.ctl + 8 + d*8 } // 6 float64: lo[3], hi[3]

// readBody loads a body from the shared region.
func readBody(p *sim.Proc, rt *svm.Runtime, l *svmLayout, i int) Body {
	var b Body
	off := l.bodyOff(i)
	b.Mass = rt.ReadFloat64(p, off)
	for d := 0; d < 3; d++ {
		b.Pos[d] = rt.ReadFloat64(p, off+8+8*d)
		b.Vel[d] = rt.ReadFloat64(p, off+32+8*d)
		b.Acc[d] = rt.ReadFloat64(p, off+56+8*d)
	}
	return b
}

// writeBody stores a body into the shared region.
func writeBody(p *sim.Proc, rt *svm.Runtime, l *svmLayout, i int, b *Body) {
	off := l.bodyOff(i)
	rt.WriteFloat64(p, off, b.Mass)
	for d := 0; d < 3; d++ {
		rt.WriteFloat64(p, off+8+8*d, b.Pos[d])
		rt.WriteFloat64(p, off+32+8*d, b.Vel[d])
		rt.WriteFloat64(p, off+56+8*d, b.Acc[d])
	}
}

// writeCell publishes one tree cell into the shared region.
func writeCell(p *sim.Proc, rt *svm.Runtime, l *svmLayout, i int, c *cell) {
	off := l.cellOff(i)
	for d := 0; d < 3; d++ {
		rt.WriteFloat64(p, off+8*d, c.center[d])
	}
	rt.WriteFloat64(p, off+24, c.half)
	rt.WriteFloat64(p, off+32, c.mass)
	for d := 0; d < 3; d++ {
		rt.WriteFloat64(p, off+40+8*d, c.com[d])
	}
	for o := 0; o < 8; o++ {
		rt.WriteUint32(p, off+64+4*o, uint32(c.children[o]))
	}
}

// readCell loads one tree cell from the shared region.
func readCell(p *sim.Proc, rt *svm.Runtime, l *svmLayout, i int) cell {
	var c cell
	off := l.cellOff(i)
	for d := 0; d < 3; d++ {
		c.center[d] = rt.ReadFloat64(p, off+8*d)
	}
	c.half = rt.ReadFloat64(p, off+24)
	c.mass = rt.ReadFloat64(p, off+32)
	for d := 0; d < 3; d++ {
		c.com[d] = rt.ReadFloat64(p, off+40+8*d)
	}
	for o := 0; o < 8; o++ {
		c.children[o] = int32(rt.ReadUint32(p, off+64+4*o))
	}
	return c
}

// RunSVM executes Barnes-SVM: bodies and the octree live in the shared
// region. Each step, ranks merge a bounding box under a lock, rank 0
// rebuilds the shared tree (the serial phase that bounds speedup), and
// all ranks traverse the shared tree — read faults fetch tree pages on
// demand, the pattern behind Barnes-SVM's large notification share
// (Table 3). Results are validated against the sequential reference.
func RunSVM(s *svm.System, pr Params) sim.Time {
	return StartSVM(s, pr)()
}

// StartSVM runs the warmup prefix of Barnes-SVM (shared layout, each
// rank's body-block initialization, and the first barrier), which
// leaves the run at the boundary where knobs land. The returned body
// runs the time steps and validation and returns the total parallel
// execution time (warmup plus body).
func StartSVM(s *svm.System, pr Params) func() sim.Time {
	nprocs := s.Nodes()
	l := layoutSVM(s, pr)
	ref := generate(pr)

	warm := s.M().RunParallel("barnes-svm-init", func(nd *machine.Node, p *sim.Proc) {
		rt := s.Runtime(int(nd.ID))
		lo, hi := split(pr.Bodies, nprocs, rt.Rank())
		// Initialize own block.
		for i := lo; i < hi; i++ {
			writeBody(p, rt, l, i, &ref[i])
		}
		rt.Barrier(p)
	})
	return func() sim.Time {
		elapsed := s.M().RunParallel("barnes-svm", func(nd *machine.Node, p *sim.Proc) {
			rt := s.Runtime(int(nd.ID))
			rank := rt.Rank()
			lo, hi := split(pr.Bodies, nprocs, rank)
			cpu := nd.CPUFor(p)
			for step := 0; step < pr.Steps; step++ {
				// Phase 1: bounding box. Rank 0 resets, then everyone merges
				// its local extent under a lock.
				if rank == 0 {
					for d := 0; d < 3; d++ {
						rt.WriteFloat64(p, l.bboxOff(d), math.Inf(1))
						rt.WriteFloat64(p, l.bboxOff(3+d), math.Inf(-1))
					}
				}
				rt.Barrier(p)
				var lob, hib [3]float64
				for d := 0; d < 3; d++ {
					lob[d], hib[d] = math.Inf(1), math.Inf(-1)
				}
				for i := lo; i < hi; i++ {
					for d := 0; d < 3; d++ {
						v := rt.ReadFloat64(p, l.bodyOff(i)+8+8*d)
						lob[d] = math.Min(lob[d], v)
						hib[d] = math.Max(hib[d], v)
					}
				}
				rt.Acquire(p, bboxLock)
				for d := 0; d < 3; d++ {
					rt.WriteFloat64(p, l.bboxOff(d),
						math.Min(rt.ReadFloat64(p, l.bboxOff(d)), lob[d]))
					rt.WriteFloat64(p, l.bboxOff(3+d),
						math.Max(rt.ReadFloat64(p, l.bboxOff(3+d)), hib[d]))
				}
				rt.ReleaseLock(p, bboxLock)
				rt.Barrier(p)

				// Phase 2: rank 0 rebuilds the shared tree.
				if rank == 0 {
					bodies := make([]Body, pr.Bodies)
					for i := range bodies {
						bodies[i] = readBody(p, rt, l, i)
					}
					t := build(bodies)
					cpu.Charge(sim.Time(pr.Bodies) * pr.InsertCost)
					if len(t.cells) > l.maxCells {
						panic("barnes: cell pool exhausted")
					}
					for i := range t.cells {
						writeCell(p, rt, l, i, &t.cells[i])
					}
					rt.WriteUint32(p, l.cellCountOff(), uint32(len(t.cells)))
				}
				rt.Barrier(p)

				// Phase 3: forces over the shared tree for the local block.
				accs := make([][3]float64, hi-lo)
				for i := lo; i < hi; i++ {
					accs[i-lo] = svmForce(p, rt, l, int32(i), pr, cpu)
				}
				rt.Barrier(p)

				// Phase 4: advance own block.
				for i := lo; i < hi; i++ {
					b := readBody(p, rt, l, i)
					advance(&b, accs[i-lo], pr.Dt)
					writeBody(p, rt, l, i, &b)
				}
				rt.Barrier(p)
			}
		})

		// Gather and validate through rank 0.
		got := make([]Body, pr.Bodies)
		s.M().RunParallel("barnes-svm-check", func(nd *machine.Node, p *sim.Proc) {
			if nd.ID != 0 {
				return
			}
			rt := s.Runtime(0)
			for i := range got {
				got[i] = readBody(p, rt, l, i)
			}
		})
		validate(pr, got)
		return warm + elapsed
	}
}

// svmForce computes the acceleration on body bi by traversing the
// shared tree, paying region-access and interaction costs.
func svmForce(p *sim.Proc, rt *svm.Runtime, l *svmLayout, bi int32, pr Params, cpu *machine.CPU) [3]float64 {
	b := readBody(p, rt, l, int(bi))
	var acc [3]float64
	var walk func(ci int32)
	walk = func(ci int32) {
		c := readCell(p, rt, l, int(ci))
		var dr [3]float64
		dist2 := 1e-18
		for d := 0; d < 3; d++ {
			dr[d] = c.com[d] - b.Pos[d]
			dist2 += dr[d] * dr[d]
		}
		if (2*c.half)*(2*c.half) < pr.Theta*pr.Theta*dist2 {
			accumulate(&b, c.mass, &c.com, pr.Eps, &acc)
			cpu.Charge(pr.InteractionCost)
			return
		}
		for o := 0; o < 8; o++ {
			switch ch := c.children[o]; {
			case ch == 0:
			case ch > 0:
				walk(ch - 1)
			default:
				ob := int(-ch - 1)
				if int32(ob) != bi {
					obody := readBody(p, rt, l, ob)
					accumulate(&b, obody.Mass, &obody.Pos, pr.Eps, &acc)
					cpu.Charge(pr.InteractionCost)
				}
			}
		}
	}
	walk(0)
	return acc
}
