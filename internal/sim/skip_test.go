package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// The skip differential oracle: a seeded random program runs once as
// shipped, where a wakeup that would pop next is taken in place
// (skipTo), and once with skipping disabled, where every wakeup goes
// through the calendar. The program mixes processes that Sleep (zero
// sleeps included), Cond.Wait, and Park after a sleep or a hold with steps that
// re-arm, hold and resume; Seq machines that sleep, take a shared
// Resource and restart from a Queue's PopFn; fn events due now and
// soon, some of which Stop the engine; and a top loop that alternates
// Run with RunUntil to random deadlines. Every entry logs the time,
// the engine's next seq, the actor and Blocked(): skipping must change
// none of them, nor the number of wakeups dispatched.

// skipProgram is the shared state of one run.
type skipProgram struct {
	e   *Engine
	c   *Cond
	r   *Resource
	log []string
	// fnLeft bounds the fn events and Queue pushes the program makes,
	// so it drains.
	fnLeft int
	seqs   []*skipSeq
}

// record logs an entry with the time, the next seq and Blocked().
func (g *skipProgram) record(format string, args ...any) {
	g.log = append(g.log, fmt.Sprintf("%d t=%d seq=%d blocked=%d ", len(g.log), g.e.now, g.e.seq, g.e.Blocked())+
		fmt.Sprintf(format, args...))
}

// work is one unit of work by any actor: it logs, and may schedule fn
// events (due now or soon, some stopping the engine or signaling),
// signal or broadcast the Cond, or push to a Seq machine's queue.
func (g *skipProgram) work(r *rand.Rand, who string) {
	g.record("%s", who)
	if g.fnLeft <= 0 {
		return
	}
	switch r.Intn(8) {
	case 0, 1:
		g.fnLeft--
		id, stop, signal := g.fnLeft, r.Intn(4) == 0, r.Intn(2) == 0
		g.e.After(Time(r.Intn(3)), func() {
			g.record("fn %d", id)
			if stop {
				g.e.Stop()
			}
			if signal {
				g.c.Signal()
			}
		})
	case 2:
		g.c.Signal()
	case 3:
		g.c.Broadcast()
	case 4:
		g.fnLeft--
		s := g.seqs[r.Intn(len(g.seqs))]
		s.q.Push(g.fnLeft)
	case 5:
		if r.Intn(3) == 0 {
			g.e.Stop()
		}
	}
}

// skipActor is a process. Its rng depends only on the seed and the
// actor, and every draw happens at a logged entry, so both runs draw
// alike as long as their logs agree.
type skipActor struct {
	g     *skipProgram
	p     *Proc
	id    int
	r     *rand.Rand
	units int
}

func (a *skipActor) body(p *Proc) {
	a.p = p
	for a.units < 40 {
		a.units++
		a.g.work(a.r, fmt.Sprintf("actor %d unit %d", a.id, a.units))
		d := Time(a.r.Intn(4))
		switch a.r.Intn(6) {
		case 0, 1:
			p.Sleep(d)
		case 2:
			a.g.c.Wait(p)
		case 3:
			p.Park(d, Again, a.step)
		case 4:
			a.g.c.Hold(p)
			p.Park(0, Held, a.step)
		default:
			p.Sleep(0)
		}
	}
	a.g.record("actor %d done", a.id)
}

// step does units at its process's wakeups until it draws a resume.
func (a *skipActor) step() (Time, Verdict) {
	a.units++
	a.g.work(a.r, fmt.Sprintf("actor %d step %d", a.id, a.units))
	switch a.r.Intn(5) {
	case 0, 1:
		return Time(a.r.Intn(4)), Again
	case 2:
		a.g.c.Hold(a.p)
		return 0, Held
	}
	return 0, Resume
}

// skipSeq is a Seq machine: it waits on its queue, sleeps, takes the
// shared Resource, sleeps holding it, releases it, and loops.
type skipSeq struct {
	g     *skipProgram
	id    int
	r     *rand.Rand
	s     Seq
	q     *Queue[int]
	loops int
}

const (
	skipSeqPop = iota
	skipSeqSleep
	skipSeqAcquire
	skipSeqHold
	skipSeqRelease
)

func (m *skipSeq) step(pc int) Ctl {
	g := m.g
	switch pc {
	case skipSeqPop:
		if v, ok := m.q.TryPop(); ok {
			g.record("seq %d took %d", m.id, v)
			return m.s.Next()
		}
		m.q.PopFn(m.deliver)
		return Wait
	case skipSeqSleep:
		g.work(m.r, fmt.Sprintf("seq %d sleep", m.id))
		return m.s.Sleep(Time(m.r.Intn(4)))
	case skipSeqAcquire:
		g.work(m.r, fmt.Sprintf("seq %d acquire", m.id))
		return m.s.Acquire(g.r)
	case skipSeqHold:
		g.work(m.r, fmt.Sprintf("seq %d hold", m.id))
		return m.s.Sleep(Time(m.r.Intn(3)))
	default:
		g.work(m.r, fmt.Sprintf("seq %d release", m.id))
		g.r.Release()
		m.loops++
		if m.r.Intn(3) == 0 {
			return m.s.Goto(skipSeqSleep)
		}
		return m.s.Goto(skipSeqPop)
	}
}

// deliver is the queue's PopFn callback: it restarts the machine, and
// logs again after Start returns, at the instant it was called.
func (m *skipSeq) deliver(v int) {
	m.g.record("seq %d got %d", m.id, v)
	m.s.Start(skipSeqSleep)
	m.g.record("seq %d started", m.id)
}

// runSkipProgram runs seed's program, with skipping disabled when
// noSkip is set, and returns its log and census.
func runSkipProgram(seed int64, noSkip bool) ([]string, Census) {
	e := NewEngine()
	e.noSkip = noSkip
	g := &skipProgram{e: e, c: NewCond(e), r: NewResource(e), fnLeft: 80}
	setup := rand.New(rand.NewSource(seed))
	for id := 0; id < 1+setup.Intn(3); id++ {
		m := &skipSeq{g: g, id: id, r: rand.New(rand.NewSource(seed*31 + int64(id))), q: NewQueue[int](e)}
		m.s.Init(e, skipSeqRelease+1, m.step)
		g.seqs = append(g.seqs, m)
		e.At(Time(setup.Intn(3)), func() { m.s.Start(skipSeqPop) })
	}
	for id := 0; id < 1+setup.Intn(4); id++ {
		a := &skipActor{g: g, id: id, r: rand.New(rand.NewSource(seed*7919 + int64(id)))}
		e.SpawnAt(Time(setup.Intn(3)), fmt.Sprint("actor", id), a.body)
	}
	// A pacer keeps signaling, so waiters rarely strand.
	e.SpawnAt(0, "pacer", func(p *Proc) {
		for i := 0; i < 60; i++ {
			p.Sleep(Time(1 + setup.Intn(4)))
			g.record("pacer")
			g.c.Broadcast()
		}
	})
	looper := rand.New(rand.NewSource(seed * 104729))
	for round := 0; round < 400 && e.Live() > 0; round++ {
		if looper.Intn(2) == 0 {
			e.Run()
			g.record("run returned")
		} else {
			e.RunUntil(e.now + Time(looper.Intn(8)))
			g.record("run until returned")
		}
	}
	g.record("end, %d live", e.Live())
	census := e.Census()
	e.Shutdown()
	return g.log, census
}

func TestSkipMatchesCalendar(t *testing.T) {
	var skips uint64
	for seed := int64(1); seed <= 80; seed++ {
		want, wantCensus := runSkipProgram(seed, true)
		got, gotCensus := runSkipProgram(seed, false)
		for i := 0; i < len(got) || i < len(want); i++ {
			var g, w string
			if i < len(got) {
				g = got[i]
			}
			if i < len(want) {
				w = want[i]
			}
			if g != w {
				t.Fatalf("seed %d: entry %d is %q, the calendar-only run has %q", seed, i, g, w)
			}
		}
		// A skip stands for one dispatch of the calendar-only run: a
		// process's own wakeup, a step wakeup or a Seq's resume event.
		total := func(c Census) uint64 { return c.Handoffs + c.SelfWakeups + c.FnEvents + c.Steps + c.Skips }
		if wantCensus.Skips != 0 || total(gotCensus) != total(wantCensus) || gotCensus.Handoffs != wantCensus.Handoffs {
			t.Fatalf("seed %d: census %+v, the calendar-only run's %+v: want equal totals and handoffs, no skips without skipping",
				seed, gotCensus, wantCensus)
		}
		skips += gotCensus.Skips
	}
	if skips == 0 {
		t.Fatal("no wakeup was taken in place")
	}
}

// A Seq step that panics in its own resume event leaves the machine
// mid-run. When a later Run restarts it with Start, its sleeps go
// through the calendar again: the caller of Start still runs at the
// instant it called it.
func TestSeqStartAfterPanicDoesNotSkip(t *testing.T) {
	e := NewEngine()
	var s Seq
	panicked := false
	s.Init(e, 2, func(pc int) Ctl {
		if pc == 0 {
			return s.Sleep(5)
		}
		if !panicked {
			panicked = true
			panic("bad step")
		}
		return Wait
	})
	e.At(0, func() { s.Start(0) })
	if r := runRecovering(e); r != "bad step" {
		t.Fatalf("Run panicked with %v, want the step's panic", r)
	}
	var after Time = -1
	e.At(10, func() {
		s.Start(0)
		after = e.Now()
	})
	e.Run()
	if after != 10 || e.Now() != 15 {
		t.Fatalf("Start's caller went on at %v and the run ended at %v, want 10 and 15", after, e.Now())
	}
}
