package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineEventOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("final time = %v, want 30", e.Now())
	}
}

func TestEngineSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	mustPanic := func(what string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s in the past did not panic", what)
			}
		}()
		f()
	}
	e.At(100, func() {
		mustPanic("At", func() { e.At(50, func() {}) })
		mustPanic("SpawnAt", func() { e.SpawnAt(50, "late", func(*Proc) {}) })
	})
	e.Run()
	if e.Now() != 100 || e.Live() != 0 {
		t.Fatalf("now = %v, live = %d after rejected schedules, want 100 and 0", e.Now(), e.Live())
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var wake Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		wake = p.Now()
	})
	e.Run()
	if wake != 5*Microsecond {
		t.Fatalf("woke at %v, want 5us", wake)
	}
	if e.Live() != 0 {
		t.Fatalf("live procs = %d, want 0", e.Live())
	}
}

func TestProcInterleaving(t *testing.T) {
	e := NewEngine()
	var trace []string
	e.Spawn("a", func(p *Proc) {
		trace = append(trace, "a0")
		p.Sleep(10)
		trace = append(trace, "a10")
		p.Sleep(20)
		trace = append(trace, "a30")
	})
	e.Spawn("b", func(p *Proc) {
		trace = append(trace, "b0")
		p.Sleep(20)
		trace = append(trace, "b20")
	})
	e.Run()
	want := []string{"a0", "b0", "a10", "b20", "a30"}
	if len(trace) != len(want) {
		t.Fatalf("trace %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace %v, want %v", trace, want)
		}
	}
}

func TestCondSignalFIFO(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn("waiter", func(p *Proc) {
			p.Sleep(Time(i)) // ensure deterministic wait order
			c.Wait(p)
			order = append(order, i)
		})
	}
	e.At(100, func() {
		c.Signal()
		c.Signal()
		c.Signal()
	})
	e.Run()
	if len(order) != 3 {
		t.Fatalf("only %d waiters woke: %v (blocked=%d)", len(order), order, e.Blocked())
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("wake order %v, want FIFO", order)
		}
	}
}

func TestCondBroadcast(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	woke := 0
	for i := 0; i < 5; i++ {
		e.Spawn("w", func(p *Proc) {
			c.Wait(p)
			woke++
		})
	}
	e.At(10, func() { c.Broadcast() })
	e.Run()
	if woke != 5 {
		t.Fatalf("woke %d, want 5", woke)
	}
}

func TestBlockedDetection(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	e.Spawn("stuck", func(p *Proc) { c.Wait(p) })
	e.Run()
	if e.Blocked() != 1 {
		t.Fatalf("Blocked() = %d, want 1", e.Blocked())
	}
}

func TestResourceMutualExclusion(t *testing.T) {
	e := NewEngine()
	r := NewResource(e)
	inside := 0
	maxInside := 0
	for i := 0; i < 4; i++ {
		e.Spawn("user", func(p *Proc) {
			r.Acquire(p)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			p.Sleep(10)
			inside--
			r.Release()
		})
	}
	end := e.Run()
	if maxInside != 1 {
		t.Fatalf("max holders = %d, want 1", maxInside)
	}
	if end != 40 {
		t.Fatalf("serialized end time = %v, want 40", end)
	}
}

func TestResourceFIFOHandoff(t *testing.T) {
	e := NewEngine()
	r := NewResource(e)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		e.SpawnAt(Time(i), "u", func(p *Proc) {
			r.Acquire(p)
			order = append(order, i)
			p.Sleep(100)
			r.Release()
		})
	}
	// A latecomer trying to steal at a release instant must queue behind.
	e.SpawnAt(5, "late", func(p *Proc) {
		p.Sleep(95) // wakes exactly when proc 0 releases at t=100
		if r.TryAcquire() {
			t.Error("TryAcquire stole the resource from a queued waiter")
		}
	})
	e.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("grant order %v, want [0 1 2]", order)
	}
}

func TestTimerCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.NewTimer(50, func() { fired = true })
	e.At(10, func() {
		if !tm.Cancel() {
			t.Error("Cancel returned false on pending timer")
		}
		if tm.Cancel() {
			t.Error("second Cancel returned true")
		}
	})
	e.Run()
	if fired {
		t.Fatal("canceled timer fired")
	}
}

func TestQueueBlockingPop(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	var got []int
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Pop(p))
		}
	})
	e.At(10, func() { q.Push(1) })
	e.At(20, func() { q.Push(2); q.Push(3) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("popped %v", got)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(Time(i*10), func() { count++ })
	}
	e.RunUntil(50)
	if count != 5 {
		t.Fatalf("ran %d events, want 5", count)
	}
	if e.Now() != 50 {
		t.Fatalf("now = %v, want 50", e.Now())
	}
	e.Run()
	if count != 10 {
		t.Fatalf("ran %d events total, want 10", count)
	}
}

// Property: for any set of event delays, events fire in nondecreasing
// time order and the engine ends at the max delay.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine()
		var fired []Time
		var max Time
		for _, d := range delays {
			d := Time(d)
			if d > max {
				max = d
			}
			e.At(d, func() { fired = append(fired, e.Now()) })
		}
		end := e.Run()
		if end != max || len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a resource serializes N holders of duration d into exactly
// N*d time regardless of arrival pattern.
func TestResourceSerializationProperty(t *testing.T) {
	f := func(arrivals []uint8, hold uint8) bool {
		if len(arrivals) == 0 || hold == 0 {
			return true
		}
		if len(arrivals) > 50 {
			arrivals = arrivals[:50]
		}
		e := NewEngine()
		r := NewResource(e)
		d := Time(hold)
		busy := Time(0)
		for _, a := range arrivals {
			e.SpawnAt(Time(a), "u", func(p *Proc) {
				r.Acquire(p)
				p.Sleep(d)
				busy += d
				r.Release()
			})
		}
		e.Run()
		return busy == Time(len(arrivals))*d && e.Blocked() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShutdownKillsBlockedProcs(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	e.Spawn("waiter", func(p *Proc) { c.Wait(p) })
	e.Spawn("looper", func(p *Proc) {
		for {
			p.Sleep(10)
		}
	})
	e.SpawnAt(1000, "never-started", func(p *Proc) { t.Error("body ran after shutdown") })
	e.RunUntil(100)
	e.Stop()
	e.Shutdown()
	if e.Live() != 0 {
		t.Fatalf("live = %d after Shutdown", e.Live())
	}
}
