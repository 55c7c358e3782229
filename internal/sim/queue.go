package sim

// Queue is an unbounded FIFO that simulation processes can block on and
// continuation state machines can register callbacks with. Pushing is
// legal from any context (engine callbacks or processes); popping either
// blocks the calling process until an item is available (Pop) or arranges
// a one-shot callback delivery (PopFn).
//
// The FIFO is a slice plus a head index rather than a rolling reslice:
// whenever the queue drains, the slice resets to its full capacity, so a
// queue that is filled and emptied in steady state (the NIC FIFOs, the
// DU request queue, the receive queue) allocates nothing after warmup.
type Queue[T any] struct {
	items []T
	head  int
	cond  *Cond

	// waitFn is the registered callback consumer, nil when none. The
	// actual wakeup plumbing rides on cond via onSignalFn, so proc and
	// callback consumers share one wake path and one calendar position.
	waitFn func(T)
	// onSignalFn is the pre-built cond callback (one bound method value,
	// materialized at construction so re-arming allocates nothing).
	onSignalFn func()
}

// NewQueue returns an empty queue bound to engine e.
func NewQueue[T any](e *Engine) *Queue[T] {
	q := &Queue[T]{cond: NewCond(e)}
	q.onSignalFn = q.onSignal
	return q
}

// Push appends v and wakes one waiting consumer.
//
//shrimp:hotpath
func (q *Queue[T]) Push(v T) {
	q.items = append(q.items, v)
	q.cond.Signal()
}

// Pop removes and returns the head item, blocking p until one exists.
//
//shrimp:hotpath
func (q *Queue[T]) Pop(p *Proc) T {
	for q.head == len(q.items) {
		q.cond.Wait(p)
	}
	return q.take()
}

// PopFn registers fn to receive the next item. Delivery always happens
// at a scheduling point (a fn event at the push instant — the same
// calendar position at which a Pop-blocked process would resume), even
// when an item is already queued. The registration is one-shot: a
// service-loop consumer drains further items with TryPop and re-arms
// PopFn when the queue runs dry. A queue has at most one registered
// callback consumer at a time.
//
//shrimp:hotpath
//shrimp:continuation
func (q *Queue[T]) PopFn(fn func(T)) {
	if q.waitFn != nil {
		panic("sim: Queue.PopFn with a callback already registered")
	}
	q.waitFn = fn
	if q.head != len(q.items) {
		// Item already available: schedule delivery directly, exactly
		// where the Push-side Signal would have put it.
		q.cond.e.At(q.cond.e.now, q.onSignalFn)
		return
	}
	q.cond.WaitFn(q.onSignalFn)
}

// onSignal runs as a fn event when a Push signals the registered
// callback consumer (or immediately after a PopFn on a non-empty
// queue). Like the recheck loop in Pop, it tolerates spurious wakeups:
// if the item vanished, it re-arms and waits for the next signal.
//
//shrimp:hotpath
func (q *Queue[T]) onSignal() {
	fn := q.waitFn
	if fn == nil {
		return
	}
	if q.head == len(q.items) {
		q.cond.WaitFn(q.onSignalFn)
		return
	}
	q.waitFn = nil
	fn(q.take())
}

// take removes the head item, recycling the backing slice on drain.
//
//shrimp:hotpath
func (q *Queue[T]) take() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return v
}

// TryPop removes and returns the head item without blocking.
//
//shrimp:hotpath
func (q *Queue[T]) TryPop() (T, bool) {
	if q.head == len(q.items) {
		var zero T
		return zero, false
	}
	return q.take(), true
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }
