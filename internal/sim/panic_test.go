package sim

import "testing"

// runRecovering runs e and returns the value of a panic that escaped
// Run, or nil.
func runRecovering(e *Engine) (r any) {
	defer func() { r = recover() }()
	e.Run()
	return nil
}

// A panic in a process body ends that process and reaches Run's caller,
// where it can be recovered; the other processes stay parked, and
// Shutdown still unwinds them.
func TestProcPanicReachesRunCaller(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	unwound := 0
	for i := 0; i < 2; i++ {
		e.Spawn("waiter", func(p *Proc) {
			defer func() { unwound++ }()
			c.Wait(p)
			t.Error("waiter resumed after the panic")
		})
	}
	e.Spawn("bad", func(p *Proc) {
		p.Sleep(10)
		panic("bad body")
	})
	if r := runRecovering(e); r != "bad body" {
		t.Fatalf("Run panicked with %v, want the body's panic", r)
	}
	if e.Now() != 10 || e.Live() != 2 {
		t.Fatalf("after the panic: now = %v, live = %d, want 10 and 2", e.Now(), e.Live())
	}
	e.Shutdown()
	if e.Live() != 0 || unwound != 2 {
		t.Fatalf("after Shutdown: live = %d, unwound = %d, want 0 and 2", e.Live(), unwound)
	}
}

// An fn event runs inline in whichever parked process is running the
// event loop. If it panics there, the panic ends that process's
// coroutine and still reaches Run's caller, and Shutdown unwinds the
// rest.
func TestFnPanicInParkedLoopReachesRunCaller(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	waiterUnwound, sleeperUnwound := false, false
	e.Spawn("waiter", func(p *Proc) {
		defer func() { waiterUnwound = true }()
		c.Wait(p)
	})
	// The sleeper parks last, so its inline loop pops the bad event.
	e.Spawn("sleeper", func(p *Proc) {
		defer func() { sleeperUnwound = true }()
		p.Sleep(10)
		t.Error("sleeper resumed after the panic")
	})
	e.At(5, func() { panic("bad event") })
	if r := runRecovering(e); r != "bad event" {
		t.Fatalf("Run panicked with %v, want the event's panic", r)
	}
	if !sleeperUnwound || waiterUnwound || e.Live() != 1 {
		t.Fatalf("after the panic: sleeper unwound %v, waiter unwound %v, live %d; "+
			"want the panic to pass through the sleeper's coroutine only",
			sleeperUnwound, waiterUnwound, e.Live())
	}
	e.Shutdown()
	if e.Live() != 0 || !waiterUnwound {
		t.Fatalf("after Shutdown: live = %d, waiter unwound %v, want 0 and true", e.Live(), waiterUnwound)
	}
}

// A process that ended in a panic can leave its wakeup on the calendar.
// A later Run must drop that wakeup rather than resume the dead
// coroutine, whose carrier would otherwise return to the shared pool and
// silently swallow the next process assigned to it.
func TestPanickedProcWakeupIsDropped(t *testing.T) {
	e := NewEngine()
	e.Spawn("sleeper", func(p *Proc) { p.Sleep(10) })
	e.At(5, func() { panic("bad event") })
	if r := runRecovering(e); r != "bad event" {
		t.Fatalf("Run panicked with %v, want the event's panic", r)
	}
	if r := runRecovering(e); r != nil || e.Now() != 10 {
		t.Fatalf("second Run: panic %v, now %v; want none and 10", r, e.Now())
	}
	e.Shutdown()

	ran := 0
	e2 := NewEngine()
	for i := 0; i < 3; i++ {
		e2.Spawn("next", func(p *Proc) { p.Sleep(1); ran++ })
	}
	e2.Run()
	if ran != 3 {
		t.Fatalf("%d of 3 processes on a fresh engine ran to completion", ran)
	}
}

// Shutdown of many blocked processes returns their carriers to the idle
// pool only up to its bound; the rest exit.
func TestIdleCarrierPoolBounded(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	for i := 0; i < maxIdleCarriers+50; i++ {
		e.Spawn("waiter", func(p *Proc) { c.Wait(p) })
	}
	e.Run()
	e.Shutdown()
	carriers.Lock()
	idle := len(carriers.idle)
	carriers.Unlock()
	if idle > maxIdleCarriers {
		t.Fatalf("%d idle carriers, want at most %d", idle, maxIdleCarriers)
	}
}
