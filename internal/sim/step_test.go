package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// The SleepThen differential oracle: seeded random programs run twice,
// once with processes that sleep with plain Sleep and do every unit of
// work themselves, and once with processes whose SleepThen step does
// the work between sleeps, handing back to the process at random points
// mid-run. Work units log, schedule fn events (some due now, to tie with
// wakeups), and signal a shared Cond that processes also wait on. Since
// a step runs at its wakeup's (t, seq) position, both runs must log the
// same (t, order, actor) sequence.

// Actions a work unit ends with.
const (
	stepSleep = iota
	stepWait
	stepDone
)

// stepProgram is the shared state of one run of a seeded program.
type stepProgram struct {
	e       *Engine
	c       *Cond
	seed    int64
	fnLeft  int
	log     []string
	handed  int // step hand-backs that left the work to the process
	stepped int // units a step did in place of the process
}

func (g *stepProgram) record(format string, args ...any) {
	g.log = append(g.log, fmt.Sprintf("%d t=%d ", len(g.log), g.e.Now())+fmt.Sprintf(format, args...))
}

// stepActor is one process's script: its work rng depends only on the
// seed and the actor, so both runs draw the same units; handback drives
// the step run's extra hand-back decisions and touches nothing logged.
type stepActor struct {
	g        *stepProgram
	id       int
	units    int
	work     *rand.Rand
	handback *rand.Rand
	op       int
	d        Time
	// computed says the step already ran the unit after the wakeup and
	// handed back only because its action is not a sleep.
	computed bool
}

// unit does one unit of work and sets the action that follows it.
func (a *stepActor) unit() {
	g, r := a.g, a.work
	g.record("actor %d unit %d", a.id, a.units)
	a.units++
	if r.Intn(3) == 0 && g.fnLeft > 0 {
		g.fnLeft--
		id := g.fnLeft
		signal := r.Intn(2) == 0
		g.e.After(Time(r.Intn(3)), func() {
			g.record("fn %d", id)
			if signal {
				g.c.Signal()
			}
		})
	}
	switch r.Intn(6) {
	case 0:
		g.c.Signal()
	case 1:
		g.c.Broadcast()
	}
	switch n := r.Intn(10); {
	case a.units >= 30:
		a.op = stepDone
	case n == 0:
		a.op = stepWait
	default:
		a.op, a.d = stepSleep, Time(r.Intn(3))
	}
}

// plain is the process body of the reference run.
func (a *stepActor) plain(p *Proc) {
	for a.unit(); a.op != stepDone; a.unit() {
		if a.op == stepSleep {
			p.Sleep(a.d)
		} else {
			a.g.c.Wait(p)
		}
	}
	a.g.record("actor %d done", a.id)
}

// streamed is the process body of the run under test.
func (a *stepActor) streamed(p *Proc) {
	a.unit()
	for a.op != stepDone {
		a.computed = false
		if a.op == stepSleep {
			p.SleepThen(a.d, a.step)
		} else {
			a.g.c.Wait(p)
		}
		if !a.computed {
			a.unit()
		}
	}
	a.g.record("actor %d done", a.id)
}

// step runs units at the wakeups of a SleepThen.
func (a *stepActor) step() (Time, bool) {
	if a.handback.Intn(4) == 0 {
		a.g.handed++
		return 0, false
	}
	a.g.stepped++
	a.unit()
	if a.op == stepSleep {
		return a.d, true
	}
	a.computed = true
	return 0, false
}

// runStepProgram runs seed's program with plain or streamed bodies and
// returns its log and the engine census before Shutdown.
func runStepProgram(seed int64, streamed bool) (*stepProgram, Census) {
	e := NewEngine()
	g := &stepProgram{e: e, c: NewCond(e), seed: seed, fnLeft: 60}
	setup := rand.New(rand.NewSource(seed))
	for id := 0; id < 2+setup.Intn(4); id++ {
		a := &stepActor{
			g:        g,
			id:       id,
			work:     rand.New(rand.NewSource(seed*7919 + int64(id))),
			handback: rand.New(rand.NewSource(seed*104729 + int64(id))),
		}
		body := a.plain
		if streamed {
			body = a.streamed
		}
		e.SpawnAt(Time(setup.Intn(3)), fmt.Sprint("actor", id), body)
	}
	// A pacer keeps signaling, so waiters rarely strand.
	e.SpawnAt(0, "pacer", func(p *Proc) {
		for i := 0; i < 40; i++ {
			p.Sleep(Time(1 + setup.Intn(4)))
			g.record("pacer")
			g.c.Broadcast()
		}
	})
	e.Run()
	g.record("end, %d live", e.Live())
	census := e.Census()
	e.Shutdown()
	return g, census
}

func TestSleepThenMatchesSleep(t *testing.T) {
	var handed, stepped int
	for seed := int64(1); seed <= 60; seed++ {
		want, wantCensus := runStepProgram(seed, false)
		got, gotCensus := runStepProgram(seed, true)
		for i := 0; i < len(got.log) || i < len(want.log); i++ {
			var g, w string
			if i < len(got.log) {
				g = got.log[i]
			}
			if i < len(want.log) {
				w = want.log[i]
			}
			if g != w {
				t.Fatalf("seed %d: entry %d is %q, the Sleep run has %q", seed, i, g, w)
			}
		}
		// Each step wakeup replaces one process wakeup, resumed by a
		// switch or by the process's own loop; fn events are the same.
		wakeups := func(c Census) uint64 { return c.Handoffs + c.SelfWakeups + c.Steps }
		if gotCensus.FnEvents != wantCensus.FnEvents || wakeups(gotCensus) != wakeups(wantCensus) {
			t.Fatalf("seed %d: census %+v, the Sleep run's %+v: want equal fn events and wakeups",
				seed, gotCensus, wantCensus)
		}
		if wantCensus.Steps != 0 || gotCensus.Steps == 0 {
			t.Fatalf("seed %d: steps %d with SleepThen, %d with Sleep; want > 0 and 0",
				seed, gotCensus.Steps, wantCensus.Steps)
		}
		handed += got.handed
		stepped += got.stepped
	}
	if handed == 0 || stepped == 0 {
		t.Fatalf("%d hand-backs, %d stepped units; want both > 0", handed, stepped)
	}
	t.Logf("%d units done by steps, %d hand-backs", stepped, handed)
}

// A step's wakeup pops in one of three places: the stepping process's
// own inline loop, another parked process's loop, or the run loop. A
// panic in the step reaches Run's caller from each, and Shutdown still
// unwinds whatever is left.
func TestStepPanicReachesRunCaller(t *testing.T) {
	for _, where := range []string{"own loop", "other's loop", "run loop"} {
		t.Run(where, func(t *testing.T) {
			e := NewEngine()
			unwound := 0
			e.Spawn("streamer", func(p *Proc) {
				defer func() { unwound++ }()
				p.SleepThen(10, func() (Time, bool) { panic("bad step") })
				t.Error("streamer resumed after its step panicked")
			})
			switch where {
			case "other's loop":
				e.Spawn("sleeper", func(p *Proc) {
					defer func() { unwound++ }()
					p.Sleep(20)
				})
			case "run loop":
				e.Spawn("short", func(p *Proc) { p.Sleep(5) })
			}
			if r := runRecovering(e); r != "bad step" {
				t.Fatalf("Run panicked with %v, want the step's panic", r)
			}
			if e.Now() != 10 {
				t.Fatalf("panic at %v, want 10", e.Now())
			}
			e.Shutdown()
			want := 1
			if where == "other's loop" {
				want = 2
			}
			if e.Live() != 0 || unwound != want {
				t.Fatalf("after Shutdown: live = %d, unwound = %d, want 0 and %d", e.Live(), unwound, want)
			}
		})
	}
}

// Shutdown unwinds a process parked in SleepThen without running its
// step.
func TestShutdownOfSleepThen(t *testing.T) {
	e := NewEngine()
	steps, unwound := 0, false
	e.Spawn("streamer", func(p *Proc) {
		defer func() { unwound = true }()
		p.SleepThen(10, func() (Time, bool) { steps++; return 1, true })
	})
	e.RunUntil(5)
	e.Shutdown()
	if !unwound || steps != 0 || e.Live() != 0 {
		t.Fatalf("after Shutdown: unwound %v, %d steps, live %d; want true, 0, 0", unwound, steps, e.Live())
	}
}

// A process that ended in a panic while parked in SleepThen leaves its
// wakeup on the calendar; a later Run drops it without running the step.
func TestFinishedProcStepIsDropped(t *testing.T) {
	e := NewEngine()
	steps := 0
	e.Spawn("streamer", func(p *Proc) {
		p.SleepThen(10, func() (Time, bool) { steps++; return 0, false })
	})
	e.At(5, func() { panic("bad event") })
	if r := runRecovering(e); r != "bad event" {
		t.Fatalf("Run panicked with %v, want the event's panic", r)
	}
	if r := runRecovering(e); r != nil || e.Now() != 10 {
		t.Fatalf("second Run: panic %v, now %v; want none and 10", r, e.Now())
	}
	if steps != 0 {
		t.Fatalf("the finished process's step ran %d times, want 0", steps)
	}
	e.Shutdown()
}
