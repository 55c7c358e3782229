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
	var census Census
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
		// Reading the census is free too.
		census = e.Census()
	})
	if avg != 0 {
		t.Fatalf("engine tick allocates %.1f objects per run, want 0", avg)
	}
	if ticks == 0 || census.FnEvents == 0 {
		t.Fatalf("callbacks never ran: %d ticks, census %+v", ticks, census)
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

// TestParkAllocationFree asserts that steps cost no allocation per
// wakeup: a Park step re-arming its process's wakeup, as a streaming
// store does after every flush, and a Park step holding its process on
// a Cond, as a stepped poll does between deliveries.
func TestParkAllocationFree(t *testing.T) {
	e := NewEngine()
	resume, poke := NewCond(e), NewCond(e)
	var streamer *Proc
	left := 0
	step := func() (Time, Verdict) {
		left--
		if left <= 0 {
			return 0, Resume
		}
		if left%2 == 0 {
			poke.Hold(streamer)
			return 0, Held
		}
		return 2, Again
	}
	streamer = e.Spawn("streamer", func(p *Proc) {
		for {
			resume.Wait(p)
			left = 6
			p.Park(3, Again, step)
			left = 5
			poke.Hold(p)
			p.Park(0, Held, step)
		}
	})
	e.Spawn("poker", func(p *Proc) {
		for {
			p.Sleep(1)
			poke.Broadcast()
		}
	})
	e.RunUntil(10) // park the streamer on the condition
	avg := testing.AllocsPerRun(100, func() {
		resume.Signal()
		e.RunUntil(e.Now() + 50)
	})
	if avg != 0 {
		t.Fatalf("step cycle allocates %.1f objects per run, want 0", avg)
	}
	if e.Census().Steps == 0 || e.Blocked() != 1 {
		t.Fatalf("census %+v, %d blocked: want steps, and the streamer blocked on resume", e.Census(), e.Blocked())
	}
	e.Shutdown()
}
