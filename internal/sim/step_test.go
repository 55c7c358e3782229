package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// The step differential oracle: seeded random programs run once with
// processes that sleep with plain Sleep, wait with Cond.Wait and do
// every unit of work themselves, and again with processes whose steps
// do the work, handing back to the process at random points mid-run.
// In the steps run a step hands back before each wait; in the held run
// it holds its process on the Cond instead (Cond.Hold), and a process
// that waits itself holds and parks in Park with Held. Work units log, schedule
// fn events (some due now, to tie with wakeups), and signal a shared
// Cond that processes also wait on. Since a step runs at its wakeup's
// (t, seq) position, every run must log the same (t, order, actor)
// sequence, and every entry records Blocked() as its event left it.

// Actions a work unit ends with.
const (
	stepSleep = iota
	stepWait
	stepDone
)

// How a run's processes wait.
const (
	runPlain = iota // Sleep and Cond.Wait, no steps
	runSteps        // Park steps; every wait is Cond.Wait
	runHeld         // Park steps that hold on the Cond; held Park
)

// stepProgram is the shared state of one run of a seeded program.
type stepProgram struct {
	e       *Engine
	c       *Cond
	seed    int64
	mode    int
	fnLeft  int
	log     []string
	handed  int // step hand-backs that left the work to the process
	stepped int // units a step did in place of the process
	held    int // waits a step or a held Park held instead of Cond.Wait
}

// record logs an entry with the time and the number of blocked
// processes. Every event records at least once, so the entries sample
// Blocked() after each event that changed it.
func (g *stepProgram) record(format string, args ...any) {
	g.log = append(g.log, fmt.Sprintf("%d t=%d blocked=%d ", len(g.log), g.e.Now(), g.e.Blocked())+
		fmt.Sprintf(format, args...))
}

// stepActor is one process's script: its work rng depends only on the
// seed and the actor, so both runs draw the same units; handback drives
// the step run's extra hand-back decisions and touches nothing logged.
type stepActor struct {
	g        *stepProgram
	p        *Proc
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

// streamed is the process body of the runs under test.
func (a *stepActor) streamed(p *Proc) {
	a.p = p
	a.unit()
	for a.op != stepDone {
		a.computed = false
		switch {
		case a.op == stepSleep:
			p.Park(a.d, Again, a.step)
		case a.g.mode == runHeld:
			a.g.held++
			a.g.c.Hold(p)
			p.Park(0, Held, a.step)
		default:
			a.g.c.Wait(p)
		}
		if !a.computed {
			a.unit()
		}
	}
	a.g.record("actor %d done", a.id)
}

// step runs units at the wakeups of a Park.
func (a *stepActor) step() (Time, Verdict) {
	if a.handback.Intn(4) == 0 {
		a.g.handed++
		return 0, Resume
	}
	a.g.stepped++
	a.unit()
	switch {
	case a.op == stepSleep:
		return a.d, Again
	case a.op == stepWait && a.g.mode == runHeld:
		a.g.held++
		a.g.c.Hold(a.p)
		return 0, Held
	}
	a.computed = true
	return 0, Resume
}

// runStepProgram runs seed's program in mode and returns its log and
// the engine census before Shutdown.
func runStepProgram(seed int64, mode int) (*stepProgram, Census) {
	e := NewEngine()
	g := &stepProgram{e: e, c: NewCond(e), seed: seed, mode: mode, fnLeft: 60}
	setup := rand.New(rand.NewSource(seed))
	for id := 0; id < 2+setup.Intn(4); id++ {
		a := &stepActor{
			g:        g,
			id:       id,
			work:     rand.New(rand.NewSource(seed*7919 + int64(id))),
			handback: rand.New(rand.NewSource(seed*104729 + int64(id))),
		}
		body := a.plain
		if mode != runPlain {
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

func TestParkMatchesSleep(t *testing.T) {
	handed, stepped := checkStepRuns(t, runSteps)
	t.Logf("%d units done by steps, %d hand-backs", stepped, handed)
}

// TestHeldStepsMatchWait is the oracle for held steps: with waits held
// on the Cond by steps and held Parks, the log, every entry's Blocked()
// and the census must match the plain run's.
func TestHeldStepsMatchWait(t *testing.T) {
	handed, stepped := checkStepRuns(t, runHeld)
	t.Logf("%d units done by steps, %d hand-backs", stepped, handed)
}

// checkStepRuns compares seeds 1..60 run in mode against the plain
// runs and returns the step hand-backs and stepped units in all.
func checkStepRuns(t *testing.T, mode int) (handed, stepped int) {
	t.Helper()
	held := 0
	for seed := int64(1); seed <= 60; seed++ {
		want, wantCensus := runStepProgram(seed, runPlain)
		got, gotCensus := runStepProgram(seed, mode)
		for i := 0; i < len(got.log) || i < len(want.log); i++ {
			var g, w string
			if i < len(got.log) {
				g = got.log[i]
			}
			if i < len(want.log) {
				w = want.log[i]
			}
			if g != w {
				t.Fatalf("seed %d: entry %d is %q, the plain run has %q", seed, i, g, w)
			}
		}
		// Each step wakeup replaces one process wakeup, resumed by a
		// switch or by the process's own loop or taken in place (a skip,
		// in either run); fn events are the same.
		wakeups := func(c Census) uint64 { return c.Handoffs + c.SelfWakeups + c.Steps + c.Skips }
		if gotCensus.FnEvents != wantCensus.FnEvents || wakeups(gotCensus) != wakeups(wantCensus) {
			t.Fatalf("seed %d: census %+v, the plain run's %+v: want equal fn events and wakeups",
				seed, gotCensus, wantCensus)
		}
		if wantCensus.Steps != 0 || gotCensus.Steps == 0 {
			t.Fatalf("seed %d: steps %d with steps, %d without; want > 0 and 0",
				seed, gotCensus.Steps, wantCensus.Steps)
		}
		handed += got.handed
		stepped += got.stepped
		held += got.held
	}
	if handed == 0 || stepped == 0 || (mode == runHeld) != (held > 0) {
		t.Fatalf("%d hand-backs, %d stepped units, %d held waits; want the first two > 0, held only in the held run",
			handed, stepped, held)
	}
	return handed, stepped
}

// A step's wakeup pops in one of three places: the stepping process's
// own inline loop, another parked process's loop, or the run loop; or
// it is taken in place when the step re-arms and nothing else is due
// first. A panic in the step reaches Run's caller from each, and
// Shutdown still unwinds whatever is left.
func TestStepPanicReachesRunCaller(t *testing.T) {
	for _, where := range []string{"own loop", "other's loop", "run loop", "skipped re-run"} {
		t.Run(where, func(t *testing.T) {
			e := NewEngine()
			unwound := 0
			e.Spawn("streamer", func(p *Proc) {
				defer func() { unwound++ }()
				if where == "skipped re-run" {
					// The first wakeup pops at 5 and re-arms for 10,
					// where nothing else is due: the step runs again in
					// place.
					rearmed := false
					p.Park(5, Again, func() (Time, Verdict) {
						if !rearmed {
							rearmed = true
							return 5, Again
						}
						panic("bad step")
					})
				} else {
					p.Park(10, Again, func() (Time, Verdict) { panic("bad step") })
				}
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

// Shutdown unwinds a process parked in Park without running its step.
func TestShutdownOfParkedStep(t *testing.T) {
	e := NewEngine()
	steps, unwound := 0, false
	e.Spawn("streamer", func(p *Proc) {
		defer func() { unwound = true }()
		p.Park(10, Again, func() (Time, Verdict) { steps++; return 1, Again })
	})
	e.RunUntil(5)
	e.Shutdown()
	if !unwound || steps != 0 || e.Live() != 0 {
		t.Fatalf("after Shutdown: unwound %v, %d steps, live %d; want true, 0, 0", unwound, steps, e.Live())
	}
}

// A process that ended in a panic while parked in Park leaves its
// wakeup on the calendar; a later Run drops it without running the step.
func TestFinishedProcStepIsDropped(t *testing.T) {
	e := NewEngine()
	steps := 0
	e.Spawn("streamer", func(p *Proc) {
		p.Park(10, Again, func() (Time, Verdict) { steps++; return 0, Resume })
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

// TestParkContract pins Park's edges: with Resume it returns at once,
// filing no event and moving neither the clock nor the census; Held
// with no Hold panics as a step's Held does; and Again with a negative
// sleep panics.
func TestParkContract(t *testing.T) {
	for _, c := range []struct {
		name  string
		d     Time
		v     Verdict
		panic any
	}{
		{"resume", 5, Resume, nil},
		{"held without hold", 0, Held, "sim: step returned Held without holding its process on a Cond"},
		{"negative again", -1, Again, "sim: negative sleep"},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine()
			stepped, returned := false, false
			e.Spawn("parker", func(p *Proc) {
				p.Sleep(3)
				now, seq, census := e.Now(), e.seq, e.Census()
				p.Park(c.d, c.v, func() (Time, Verdict) { stepped = true; return 0, Resume })
				returned = true
				if e.Now() != now || e.seq != seq || e.Census() != census {
					t.Errorf("Park(%v, Resume) moved now %v→%v, seq %d→%d, census %+v→%+v",
						c.d, now, e.Now(), seq, e.seq, census, e.Census())
				}
			})
			if r := runRecovering(e); r != c.panic {
				t.Fatalf("Run panicked with %v, want %v", r, c.panic)
			}
			if stepped || returned != (c.panic == nil) {
				t.Fatalf("step ran %v, Park returned %v; want false, %v", stepped, returned, c.panic == nil)
			}
			e.Shutdown()
		})
	}
}
