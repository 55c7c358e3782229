package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// The calendar differential oracle: a seeded random mix of At, After,
// NewTimer and Timer.Cancel runs once on the Engine and once on a naive
// reference that keeps every pending event in one list and sorts it by
// (t, seq) before each pop. Both must log the same firings at the same
// times and the same Cancel results.

const (
	calAt = iota
	calAfter
	calTimer
	calCancel
)

// calOp is one scripted action. pick selects a cancel target: from the
// newest few timers when recent is set (so most cancels hit pending
// timers), else from all timers made so far (so some hit fired ones).
type calOp struct {
	kind   int
	delay  Time
	pick   int
	recent bool
}

// calScript is the action list of the event with the given id (id 0 is
// the setup before Run). It depends only on (seed, id), so both
// calendars see the same script for the same event.
func calScript(seed int64, id int) []calOp {
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(id)))
	ops := make([]calOp, r.Intn(5))
	if id == 0 {
		ops = make([]calOp, 8)
	}
	for i := range ops {
		op := calOp{kind: r.Intn(4), pick: r.Int(), recent: r.Intn(4) != 0}
		switch r.Intn(3) {
		case 0: // due now: FIFO-resident, tied with everything due now
		case 1: // near future: heap ties at the same instant
			op.delay = Time(1 + r.Intn(2))
		default:
			op.delay = Time(1 + r.Intn(50))
		}
		ops[i] = op
	}
	return ops
}

// calendar is what the player needs from either implementation. timer
// returns the new timer's cancel function.
type calendar interface {
	now() Time
	at(t Time, fn func())
	after(d Time, fn func())
	timer(d Time, fn func()) func() bool
	run()
}

// calPlayer plays the scripts against one calendar and logs what
// happens. It stops creating events after maxEvents.
type calPlayer struct {
	seed      int64
	maxEvents int
	cal       calendar
	nextID    int
	timers    []func() bool
	log       []string
}

func (d *calPlayer) fire(id int) {
	d.log = append(d.log, fmt.Sprintf("fire %d at %d", id, d.cal.now()))
	d.exec(id)
}

func (d *calPlayer) exec(id int) {
	for _, op := range calScript(d.seed, id) {
		if op.kind == calCancel {
			if len(d.timers) == 0 {
				continue
			}
			n := len(d.timers)
			if op.recent && n > 3 {
				n = 3
			}
			i := len(d.timers) - 1 - op.pick%n
			d.log = append(d.log, fmt.Sprintf("cancel timer %d: %v", i, d.timers[i]()))
			continue
		}
		if d.nextID >= d.maxEvents {
			continue
		}
		d.nextID++
		child := d.nextID
		fn := func() { d.fire(child) }
		switch op.kind {
		case calAt:
			d.cal.at(d.cal.now()+op.delay, fn)
		case calAfter:
			d.cal.after(op.delay, fn)
		case calTimer:
			d.timers = append(d.timers, d.cal.timer(op.delay, fn))
		}
	}
}

// engineCal adapts the Engine. It counts the live events it filed on
// the heap (due after the instant they were scheduled at), so each
// successful heap-resident cancel can check that the heap holds exactly
// those: a canceled timer must leave the heap at once.
type engineCal struct {
	t                  *testing.T
	e                  *Engine
	heapLive           int
	heapCancels        int
	fifoCancels        int
	firedCancels       int
	heapCancelMismatch bool
}

func (c *engineCal) now() Time { return c.e.Now() }

// track wraps fn so the heap count drops when a heap-resident event
// fires.
func (c *engineCal) track(t Time, fn func()) (func(), bool) {
	if t == c.e.Now() {
		return fn, false
	}
	c.heapLive++
	return func() { c.heapLive--; fn() }, true
}

func (c *engineCal) at(t Time, fn func()) {
	fn, _ = c.track(t, fn)
	c.e.At(t, fn)
}

func (c *engineCal) after(d Time, fn func()) { c.at(c.e.Now()+d, fn) }

func (c *engineCal) timer(d Time, fn func()) func() bool {
	fired := false
	wrapped, onHeap := c.track(c.e.Now()+d, func() { fired = true; fn() })
	tm := c.e.NewTimer(d, wrapped)
	return func() bool {
		ok := tm.Cancel()
		switch {
		case !ok:
			if fired {
				c.firedCancels++
			}
		case onHeap:
			c.heapCancels++
			c.heapLive--
			if len(c.e.events) != c.heapLive && !c.heapCancelMismatch {
				c.heapCancelMismatch = true
				c.t.Errorf("after a heap-resident cancel at %v: %d heap events, want %d live",
					c.e.Now(), len(c.e.events), c.heapLive)
			}
		default:
			c.fifoCancels++
		}
		return ok
	}
}

func (c *engineCal) run() { c.e.Run() }

// refCal is the naive reference calendar.
type refCal struct {
	t       Time
	seq     uint64
	pending []*refEvent
}

type refEvent struct {
	t    Time
	seq  uint64
	fn   func()
	done bool
}

func (r *refCal) now() Time { return r.t }

func (r *refCal) push(t Time, fn func()) *refEvent {
	ev := &refEvent{t: t, seq: r.seq, fn: fn}
	r.seq++
	r.pending = append(r.pending, ev)
	return ev
}

func (r *refCal) at(t Time, fn func())    { r.push(t, fn) }
func (r *refCal) after(d Time, fn func()) { r.push(r.t+d, fn) }

func (r *refCal) timer(d Time, fn func()) func() bool {
	ev := r.push(r.t+d, fn)
	return func() bool {
		if ev.done {
			return false
		}
		ev.done = true
		for i, p := range r.pending {
			if p == ev {
				r.pending = append(r.pending[:i], r.pending[i+1:]...)
				break
			}
		}
		return true
	}
}

func (r *refCal) run() {
	for len(r.pending) > 0 {
		sort.Slice(r.pending, func(i, j int) bool {
			a, b := r.pending[i], r.pending[j]
			if a.t != b.t {
				return a.t < b.t
			}
			return a.seq < b.seq
		})
		ev := r.pending[0]
		r.pending = r.pending[1:]
		ev.done = true
		r.t = ev.t
		ev.fn()
	}
}

func TestCalendarMatchesReference(t *testing.T) {
	var heapCancels, fifoCancels, firedCancels int
	for seed := int64(1); seed <= 40; seed++ {
		ec := &engineCal{t: t, e: NewEngine()}
		got := &calPlayer{seed: seed, maxEvents: 400, cal: ec}
		got.exec(0)
		got.cal.run()
		want := &calPlayer{seed: seed, maxEvents: 400, cal: &refCal{}}
		want.exec(0)
		want.cal.run()

		for i := 0; i < len(got.log) || i < len(want.log); i++ {
			var g, w string
			if i < len(got.log) {
				g = got.log[i]
			}
			if i < len(want.log) {
				w = want.log[i]
			}
			if g != w {
				t.Fatalf("seed %d: entry %d is %q, reference has %q", seed, i, g, w)
			}
		}
		if len(ec.e.events) != 0 || ec.e.nowqAt != len(ec.e.nowq) {
			t.Fatalf("seed %d: calendar not drained after Run", seed)
		}
		heapCancels += ec.heapCancels
		fifoCancels += ec.fifoCancels
		firedCancels += ec.firedCancels
	}
	// The mix must exercise every cancel path.
	if heapCancels == 0 || fifoCancels == 0 || firedCancels == 0 {
		t.Fatalf("cancels: %d heap-resident, %d FIFO-resident, %d of fired timers; want all > 0",
			heapCancels, fifoCancels, firedCancels)
	}
	t.Logf("cancels: %d heap-resident, %d FIFO-resident, %d of fired timers",
		heapCancels, fifoCancels, firedCancels)
}
