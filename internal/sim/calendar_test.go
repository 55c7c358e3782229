package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// The calendar differential oracle: a seeded random mix of At, After,
// NewTimer, Timer.Cancel and Timer.Reset runs once on the Engine and
// once on a naive reference that keeps every pending event in one list
// and sorts it by (t, seq) before each pop, and resets a timer by
// canceling it and filing its callback anew. Both must log the same
// firings at the same times and the same Cancel results.

const (
	calAt = iota
	calAfter
	calTimer
	calCancel
	calReset
)

// calOp is one scripted action. pick selects a cancel or reset target:
// from the newest few timers when recent is set (so most hit pending
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
		op := calOp{kind: r.Intn(5), pick: r.Int(), recent: r.Intn(4) != 0}
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

// calendar is what the player needs from either implementation.
type calendar interface {
	now() Time
	at(t Time, fn func())
	after(d Time, fn func())
	timer(d Time, fn func()) calHandle
	run()
}

// calHandle is a timer handle of either implementation.
type calHandle interface {
	cancel() bool
	reset(d Time)
}

// calPlayer plays the scripts against one calendar and logs what
// happens. It stops creating events, and resetting timers (a timer that
// resets itself each time it fires would never drain), after maxEvents
// of each.
type calPlayer struct {
	seed      int64
	maxEvents int
	cal       calendar
	nextID    int
	resets    int
	timers    []calHandle
	log       []string
}

func (d *calPlayer) fire(id int) {
	d.log = append(d.log, fmt.Sprintf("fire %d at %d", id, d.cal.now()))
	d.exec(id)
}

func (d *calPlayer) exec(id int) {
	for _, op := range calScript(d.seed, id) {
		if op.kind == calCancel || op.kind == calReset {
			if len(d.timers) == 0 {
				continue
			}
			n := len(d.timers)
			if op.recent && n > 3 {
				n = 3
			}
			i := len(d.timers) - 1 - op.pick%n
			if op.kind == calCancel {
				d.log = append(d.log, fmt.Sprintf("cancel timer %d: %v", i, d.timers[i].cancel()))
			} else if d.resets < d.maxEvents {
				d.resets++
				d.log = append(d.log, fmt.Sprintf("reset timer %d to +%d", i, op.delay))
				d.timers[i].reset(op.delay)
			}
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
// successful heap-resident cancel, and each reset, can check that the
// heap holds exactly those: a canceled or re-keyed timer must leave no
// stale entry behind.
type engineCal struct {
	t                  *testing.T
	e                  *Engine
	heapLive           int
	heapCancels        int
	fifoCancels        int
	firedCancels       int
	inPlaceResets      int
	fallbackResets     int
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

// engineTimer is an Engine timer plus the state of its current arming:
// whether it went on the heap, and whether it has fired or been
// canceled since.
type engineTimer struct {
	c             *engineCal
	tm            Timer
	onHeap        bool
	fired, killed bool
}

func (c *engineCal) timer(d Time, fn func()) calHandle {
	h := &engineTimer{c: c, onHeap: d != 0}
	if h.onHeap {
		c.heapLive++
	}
	h.tm = c.e.NewTimer(d, func() {
		h.fired = true
		if h.onHeap {
			c.heapLive--
		}
		fn()
	})
	return h
}

func (h *engineTimer) cancel() bool {
	c := h.c
	ok := h.tm.Cancel()
	switch {
	case !ok:
		if h.fired {
			c.firedCancels++
		}
	case h.onHeap:
		h.killed = true
		c.heapCancels++
		c.heapLive--
		c.checkHeap("a heap-resident cancel")
	default:
		h.killed = true
		c.fifoCancels++
	}
	return ok
}

func (h *engineTimer) reset(d Time) {
	c := h.c
	pending := !h.fired && !h.killed
	if pending && h.onHeap && d != 0 {
		c.inPlaceResets++
	} else {
		c.fallbackResets++
	}
	if pending && h.onHeap {
		c.heapLive--
	}
	h.onHeap, h.fired, h.killed = d != 0, false, false
	if h.onHeap {
		c.heapLive++
	}
	h.tm.Reset(d)
	c.checkHeap("a reset")
}

// checkHeap reports, once, a heap holding other than the live events.
func (c *engineCal) checkHeap(after string) {
	if len(c.e.events) != c.heapLive && !c.heapCancelMismatch {
		c.heapCancelMismatch = true
		c.t.Errorf("after %s at %v: %d heap events, want %d live",
			after, c.e.Now(), len(c.e.events), c.heapLive)
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

// refTimer is a reference timer: its current event and its callback.
type refTimer struct {
	r  *refCal
	ev *refEvent
	fn func()
}

func (r *refCal) timer(d Time, fn func()) calHandle {
	return &refTimer{r: r, ev: r.push(r.t+d, fn), fn: fn}
}

func (t *refTimer) cancel() bool {
	if t.ev.done {
		return false
	}
	t.ev.done = true
	for i, p := range t.r.pending {
		if p == t.ev {
			t.r.pending = append(t.r.pending[:i], t.r.pending[i+1:]...)
			break
		}
	}
	return true
}

func (t *refTimer) reset(d Time) {
	t.cancel()
	t.ev = t.r.push(t.r.t+d, t.fn)
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
	var heapCancels, fifoCancels, firedCancels, inPlaceResets, fallbackResets int
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
		inPlaceResets += ec.inPlaceResets
		fallbackResets += ec.fallbackResets
	}
	// The mix must exercise every cancel path and both reset paths.
	if heapCancels == 0 || fifoCancels == 0 || firedCancels == 0 {
		t.Fatalf("cancels: %d heap-resident, %d FIFO-resident, %d of fired timers; want all > 0",
			heapCancels, fifoCancels, firedCancels)
	}
	if inPlaceResets == 0 || fallbackResets == 0 {
		t.Fatalf("resets: %d in place, %d by cancel and re-arm; want both > 0",
			inPlaceResets, fallbackResets)
	}
	t.Logf("cancels: %d heap-resident, %d FIFO-resident, %d of fired timers; resets: %d in place, %d by cancel and re-arm",
		heapCancels, fifoCancels, firedCancels, inPlaceResets, fallbackResets)
}
