package sim

import "testing"

// TestEngineTickAllocationFree asserts the engine's event hot path —
// scheduling callbacks, firing timers, canceling (the heap's last leaf
// and a mid-heap event), re-arming and resetting — runs without heap allocation
// once the freelist is warm. AllocsPerRun's warmup call populates the
// freelist; any steady-state allocation after that is a regression in
// the zero-allocation data path.
func TestEngineTickAllocationFree(t *testing.T) {
	e := NewEngine()
	ticks := 0
	tick := func() { ticks++ }
	avg := testing.AllocsPerRun(100, func() {
		// A burst of callbacks at mixed delays exercises both the
		// same-instant FIFO and the heap.
		e.After(0, tick)
		e.After(5, tick)
		e.After(10, tick)
		// Cancel-and-rearm, and Reset in place (the combining-timeout
		// pattern) and to the current instant.
		tm := e.NewTimer(20, tick)
		tm.Cancel()
		tm = e.NewTimer(20, tick)
		tm.Reset(25)
		tm.Reset(15)
		tm.Reset(0)
		// Cancel a timer that is not the last heap leaf, so removal
		// moves another event into its slot.
		mid := e.NewTimer(30, tick)
		e.After(40, tick)
		e.After(50, tick)
		mid.Cancel()
		e.Run()
	})
	if avg != 0 {
		t.Fatalf("engine tick allocates %.1f objects per run, want 0", avg)
	}
	if ticks == 0 {
		t.Fatal("callbacks never ran")
	}
}

// TestProcSleepAllocationFree asserts that a process sleeping in a loop
// (the shape of every device engine) costs no allocation per wakeup.
func TestProcSleepAllocationFree(t *testing.T) {
	e := NewEngine()
	resume := NewCond(e)
	e.Spawn("sleeper", func(p *Proc) {
		for {
			resume.Wait(p)
			p.Sleep(3)
		}
	})
	e.Run() // park the sleeper on the condition
	avg := testing.AllocsPerRun(100, func() {
		resume.Signal()
		e.Run()
	})
	if avg != 0 {
		t.Fatalf("sleep/wake cycle allocates %.1f objects per run, want 0", avg)
	}
	e.Shutdown()
}
