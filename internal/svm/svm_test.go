package svm

import (
	"testing"

	"shrimp/internal/machine"
	"shrimp/internal/memory"
	"shrimp/internal/sim"
	"shrimp/internal/vmmc"
)

var allProtocols = []Protocol{HLRC, HLRCAU, AURC}

func newSystem(t *testing.T, nodes int, proto Protocol, bytes int) *System {
	t.Helper()
	m := machine.New(machine.DefaultConfig(nodes))
	t.Cleanup(m.Close)
	return New(vmmc.NewSystem(m), DefaultConfig(proto, bytes))
}

func runAll(s *System, body func(rt *Runtime, p *sim.Proc)) sim.Time {
	return s.sys.M.RunParallel("svm", func(nd *machine.Node, p *sim.Proc) {
		body(s.Runtime(int(nd.ID)), p)
	})
}

func TestComputeDiff(t *testing.T) {
	twin := make([]byte, 64)
	cur := make([]byte, 64)
	copy(cur, twin)
	if runs := computeDiff(twin, cur); len(runs) != 0 {
		t.Fatalf("clean page produced runs %v", runs)
	}
	cur[5] = 1
	cur[6] = 2
	cur[40] = 3
	runs := computeDiff(twin, cur)
	if len(runs) != 2 {
		t.Fatalf("runs = %v, want 2", runs)
	}
	if runs[0].off != 5 || runs[0].len != 2 || runs[1].off != 40 || runs[1].len != 1 {
		t.Fatalf("runs = %v", runs)
	}
	// Nearby changes merge into one run.
	cur2 := make([]byte, 64)
	copy(cur2, twin)
	cur2[10] = 1
	cur2[14] = 1 // 3-byte gap < 8
	runs = computeDiff(twin, cur2)
	if len(runs) != 1 || runs[0].off != 10 || runs[0].len != 5 {
		t.Fatalf("merge runs = %v", runs)
	}
}

func TestSingleWriterPropagation(t *testing.T) {
	for _, proto := range allProtocols {
		s := newSystem(t, 4, proto, 64*1024)
		off := s.Alloc(4 * 4) // one word per node, same page (false sharing!)
		runAll(s, func(rt *Runtime, p *sim.Proc) {
			if rt.Rank() == 1 {
				rt.WriteUint32(p, off, 4242)
			}
			rt.Barrier(p)
			if got := rt.ReadUint32(p, off); got != 4242 {
				t.Errorf("%v: rank %d read %d, want 4242", proto, rt.Rank(), got)
			}
		})
	}
}

func TestFalseSharingMerges(t *testing.T) {
	// All nodes write different words of the same page concurrently;
	// after the barrier everyone must see every write. This is exactly
	// the page-level false sharing Radix induces.
	for _, proto := range allProtocols {
		const n = 8
		s := newSystem(t, n, proto, 64*1024)
		off := s.Alloc(n * 4)
		runAll(s, func(rt *Runtime, p *sim.Proc) {
			rt.WriteUint32(p, off+4*rt.Rank(), uint32(100+rt.Rank()))
			rt.Barrier(p)
			for i := 0; i < n; i++ {
				if got := rt.ReadUint32(p, off+4*i); got != uint32(100+i) {
					t.Errorf("%v: rank %d sees word %d = %d", proto, rt.Rank(), i, got)
				}
			}
		})
	}
}

func TestMultiPageWrites(t *testing.T) {
	for _, proto := range allProtocols {
		const n = 4
		s := newSystem(t, n, proto, 256*1024)
		pages := 16
		off := s.AllocPages(pages)
		runAll(s, func(rt *Runtime, p *sim.Proc) {
			// Each rank writes a strided pattern across all pages.
			for pg := 0; pg < pages; pg++ {
				base := off + pg*PageSize
				rt.WriteUint32(p, base+4*rt.Rank(), uint32(pg*1000+rt.Rank()))
			}
			rt.Barrier(p)
			for pg := 0; pg < pages; pg++ {
				base := off + pg*PageSize
				for r := 0; r < n; r++ {
					if got := rt.ReadUint32(p, base+4*r); got != uint32(pg*1000+r) {
						t.Errorf("%v: page %d word %d = %d", proto, pg, r, got)
						return
					}
				}
			}
		})
	}
}

func TestSequentialBarriers(t *testing.T) {
	// Values accumulate across epochs: each rank increments its own
	// counter and reads everyone's at each step.
	for _, proto := range allProtocols {
		const n = 4
		const steps = 5
		s := newSystem(t, n, proto, 64*1024)
		off := s.Alloc(n * 4)
		runAll(s, func(rt *Runtime, p *sim.Proc) {
			for step := 1; step <= steps; step++ {
				rt.WriteUint32(p, off+4*rt.Rank(), uint32(step*10+rt.Rank()))
				rt.Barrier(p)
				for i := 0; i < n; i++ {
					want := uint32(step*10 + i)
					if got := rt.ReadUint32(p, off+4*i); got != want {
						t.Fatalf("%v: step %d rank %d sees word %d = %d, want %d",
							proto, step, rt.Rank(), i, got, want)
					}
				}
				rt.Barrier(p)
			}
		})
	}
}

func TestLockProtectedCounter(t *testing.T) {
	for _, proto := range allProtocols {
		const n = 6
		const iters = 10
		s := newSystem(t, n, proto, 64*1024)
		off := s.Alloc(4)
		runAll(s, func(rt *Runtime, p *sim.Proc) {
			for i := 0; i < iters; i++ {
				rt.Acquire(p, 3)
				v := rt.ReadUint32(p, off)
				rt.node.CPUFor(p).Charge(2 * sim.Microsecond) // critical section work
				rt.WriteUint32(p, off, v+1)
				rt.ReleaseLock(p, 3)
			}
			rt.Barrier(p)
			if got := rt.ReadUint32(p, off); got != n*iters {
				t.Errorf("%v: rank %d final counter %d, want %d", proto, rt.Rank(), got, n*iters)
			}
		})
	}
}

func TestManyLocksIndependent(t *testing.T) {
	const n = 4
	s := newSystem(t, n, HLRC, 64*1024)
	offs := make([]int, n)
	for i := range offs {
		offs[i] = s.AllocPages(1) // one page per slot: no false sharing
	}
	runAll(s, func(rt *Runtime, p *sim.Proc) {
		// Each rank uses its own lock and slot; others' locks untouched.
		lk := rt.Rank()
		for i := 0; i < 20; i++ {
			rt.Acquire(p, lk)
			v := rt.ReadUint32(p, offs[lk])
			rt.WriteUint32(p, offs[lk], v+1)
			rt.ReleaseLock(p, lk)
		}
		rt.Barrier(p)
		for i := 0; i < n; i++ {
			if got := rt.ReadUint32(p, offs[i]); got != 20 {
				t.Errorf("slot %d = %d, want 20", i, got)
			}
		}
	})
}

func TestProtocolMechanisms(t *testing.T) {
	type outcome struct {
		diffs, auStores, fetches int64
	}
	run := func(proto Protocol) outcome {
		const n = 4
		s := newSystem(t, n, proto, 64*1024)
		off := s.Alloc(n * 256)
		runAll(s, func(rt *Runtime, p *sim.Proc) {
			for i := 0; i < 32; i++ {
				rt.WriteUint32(p, off+256*rt.Rank()+4*i, uint32(i))
			}
			rt.Barrier(p)
			_ = rt.ReadUint32(p, off)
		})
		c := s.sys.M.Acct.TotalCounters()
		return outcome{diffs: c.DiffsCreated, auStores: c.AUStores, fetches: c.PagesFetched}
	}
	h := run(HLRC)
	ha := run(HLRCAU)
	a := run(AURC)
	if h.diffs == 0 {
		t.Error("HLRC created no diffs")
	}
	if h.auStores != 0 {
		t.Errorf("HLRC produced AU traffic: %d stores", h.auStores)
	}
	if ha.diffs == 0 || ha.auStores == 0 {
		t.Errorf("HLRC-AU should both diff and AU: %+v", ha)
	}
	if a.diffs != 0 {
		t.Errorf("AURC created %d diffs", a.diffs)
	}
	if a.auStores == 0 {
		t.Error("AURC produced no AU traffic")
	}
}

func TestNotificationsUsedBySVM(t *testing.T) {
	s := newSystem(t, 4, HLRC, 64*1024)
	off := s.Alloc(16)
	runAll(s, func(rt *Runtime, p *sim.Proc) {
		rt.WriteUint32(p, off+4*rt.Rank(), 1)
		rt.Barrier(p)
		_ = rt.ReadUint32(p, off)
	})
	c := s.sys.M.Acct.TotalCounters()
	if c.Notifications == 0 {
		t.Fatal("SVM produced no notifications (Table 3 expects a large share)")
	}
	if c.MessagesSent == 0 || c.Notifications >= c.MessagesSent {
		t.Fatalf("notifications %d vs messages %d implausible", c.Notifications, c.MessagesSent)
	}
}

func TestHomePagesNeverFetchedByHome(t *testing.T) {
	s := newSystem(t, 2, HLRC, 32*1024)
	runAll(s, func(rt *Runtime, p *sim.Proc) {
		// Touch every self-homed page: must not fault-fetch.
		for pg := 0; pg < s.Pages; pg++ {
			if s.Home(pg) == rt.Rank() {
				_ = rt.ReadUint32(p, pg*PageSize)
			}
		}
	})
	if f := s.sys.M.Acct.TotalCounters().PagesFetched; f != 0 {
		t.Fatalf("home reads triggered %d fetches", f)
	}
}

func TestRegionAllocator(t *testing.T) {
	m := machine.New(machine.DefaultConfig(1))
	defer m.Close()
	s := New(vmmc.NewSystem(m), DefaultConfig(HLRC, 8*memory.PageSize))
	a := s.Alloc(10)
	b := s.Alloc(10)
	if b <= a || b%8 != 0 {
		t.Fatalf("alloc offsets %d %d", a, b)
	}
	pg := s.AllocPages(2)
	if pg%memory.PageSize != 0 {
		t.Fatalf("page alloc %d not aligned", pg)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("over-allocation did not panic")
		}
	}()
	s.Alloc(8 * memory.PageSize)
}

// TestRandomizedConsistencyProperty drives all three protocols with a
// pseudo-random race-free workload (each rank owns a disjoint word set
// but words from different ranks share pages heavily) across randomized
// barrier placements, and checks the shared memory against a simple
// sequential reference model.
func TestRandomizedConsistencyProperty(t *testing.T) {
	for _, proto := range allProtocols {
		for seed := int64(1); seed <= 3; seed++ {
			runRandomized(t, proto, seed)
		}
	}
}

func runRandomized(t *testing.T, proto Protocol, seed int64) {
	t.Helper()
	const n = 4
	const words = 512 // 2KB spread over pages via stride
	const steps = 4
	s := newSystem(t, n, proto, 256*1024)
	off := s.Alloc(words * 4)

	// Reference model: the final value of each word.
	ref := make([]uint32, words)
	rng := seed
	next := func() uint32 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return uint32(rng >> 33)
	}
	// Precompute each rank's writes per step: word i is owned by rank
	// i%n (disjoint ownership => race-free, but heavy page sharing).
	type write struct {
		word int
		val  uint32
	}
	plan := make([][][]write, n)
	for r := 0; r < n; r++ {
		plan[r] = make([][]write, steps)
		for st := 0; st < steps; st++ {
			count := int(next()%64) + 8
			for k := 0; k < count; k++ {
				w := (int(next()) % (words / n)) * n
				w += r
				v := next()
				plan[r][st] = append(plan[r][st], write{word: w, val: v})
				ref[w] = v
			}
		}
	}

	runAll(s, func(rt *Runtime, p *sim.Proc) {
		for st := 0; st < steps; st++ {
			for _, w := range plan[rt.Rank()][st] {
				rt.WriteUint32(p, off+4*w.word, w.val)
			}
			rt.Barrier(p)
			// Random cross-reads after each barrier: every rank verifies
			// a sample of other ranks' words.
			for k := 0; k < 16; k++ {
				w := (rt.Rank()*7 + k*13) % words
				_ = rt.ReadUint32(p, off+4*w)
			}
			rt.Barrier(p)
		}
		// Final verification of the full region against the reference.
		for w := 0; w < words; w++ {
			want := ref[w]
			if got := rt.ReadUint32(p, off+4*w); got != want {
				t.Errorf("%v seed %d: rank %d word %d = %d, want %d",
					proto, seed, rt.Rank(), w, got, want)
				return
			}
		}
	})
}

// TestLockContentionStress hammers one lock from all ranks with
// read-modify-writes of several words spread across pages.
func TestLockContentionStress(t *testing.T) {
	for _, proto := range allProtocols {
		const n = 4
		const iters = 8
		const cells = 6
		s := newSystem(t, n, proto, 128*1024)
		offs := make([]int, cells)
		for i := range offs {
			offs[i] = s.Alloc(4)
			// Spread across pages.
			s.AllocPages(1)
		}
		runAll(s, func(rt *Runtime, p *sim.Proc) {
			for i := 0; i < iters; i++ {
				rt.Acquire(p, 5)
				for _, o := range offs {
					rt.WriteUint32(p, o, rt.ReadUint32(p, o)+1)
				}
				rt.ReleaseLock(p, 5)
			}
			rt.Barrier(p)
			for _, o := range offs {
				if got := rt.ReadUint32(p, o); got != n*iters {
					t.Errorf("%v: cell %d = %d, want %d", proto, o, got, n*iters)
				}
			}
		})
	}
}
