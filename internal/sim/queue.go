package sim

// ring is a growable FIFO over a power-of-two circular buffer: push and pop
// are O(1) and, once the buffer has reached the working depth, allocate
// nothing.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

func (r *ring[T]) len() int { return r.n }

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		grown := make([]T, max(4, 2*len(r.buf)))
		k := copy(grown, r.buf[r.head:])
		copy(grown[k:], r.buf[:r.head])
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// peek returns the head element; the ring must not be empty.
func (r *ring[T]) peek() *T { return &r.buf[r.head] }

// pop removes and returns the head element; the ring must not be empty.
func (r *ring[T]) pop() T {
	v := r.buf[r.head]
	r.buf[r.head] = *new(T)
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// Queue is a FIFO channel-like conduit between simulated processes with an
// optional capacity bound. A capacity of 0 means unbounded. Handoff is
// instantaneous in virtual time; use it to model request queues, NIC work
// queues, device submission queues and similar structures.
type Queue[T any] struct {
	env     *Env
	cap     int
	items   ring[T]
	getters ring[*qwaiter[T]]
	putters ring[*qwaiter[T]]
	spare   *qwaiter[T] // free list of waiter records
	closed  bool
}

// qwaiter is one process blocked in Get (v receives the item) or Put (v is
// the item). While it sits in the queue's getters or putters ring the ring
// owns it; whoever pops it marks it served, and from then on the blocked
// process owns it and recycles it on waking.
type qwaiter[T any] struct {
	w      *wakeup
	v      T
	served bool // popped from its ring: an item (or, for a getter, closure) was handed over
	closed bool // served by Close, not by an item
	next   *qwaiter[T]
}

// NewQueue returns a queue bound to env. capacity ≤ 0 means unbounded.
func NewQueue[T any](env *Env, capacity int) *Queue[T] {
	return &Queue[T]{env: env, cap: capacity}
}

// Len returns the number of buffered items.
func (q *Queue[T]) Len() int { return q.items.len() }

func (q *Queue[T]) newWaiter(p *Proc, tag int) *qwaiter[T] {
	qw := q.spare
	if qw == nil {
		qw = new(qwaiter[T])
	} else {
		q.spare = qw.next
	}
	*qw = qwaiter[T]{w: q.env.newWakeup(p, nil, tag)}
	return qw
}

func (q *Queue[T]) recycle(qw *qwaiter[T]) {
	*qw = qwaiter[T]{next: q.spare}
	q.spare = qw
}

// Close marks the queue closed: subsequent Put panics, pending and future
// Gets drain remaining items and then return ok=false.
func (q *Queue[T]) Close() {
	if q.closed {
		return
	}
	q.closed = true
	// Wake blocked getters; they will observe the close.
	for g := q.popGetter(); g != nil; g = q.popGetter() {
		g.closed = true
		q.env.fireWakeup(g.w)
	}
}

// TryPut appends v without blocking. It reports false if the queue is full.
// Panics if the queue is closed.
func (q *Queue[T]) TryPut(v T) bool {
	if q.closed {
		panic("sim: Put on closed Queue")
	}
	if g := q.popGetter(); g != nil {
		g.v = v
		q.env.fireWakeup(g.w)
		return true
	}
	if q.cap > 0 && q.items.len() >= q.cap {
		return false
	}
	q.items.push(v)
	return true
}

// Put appends v, blocking the process while the queue is full.
func (q *Queue[T]) Put(p *Proc, v T) {
	if q.TryPut(v) {
		return
	}
	p.mustBeRunning("Queue.Put")
	pw := q.newWaiter(p, 0)
	pw.v = v
	q.putters.push(pw)
	p.park()
	q.recycle(pw)
}

// TryGet removes and returns the head item without blocking. ok is false if
// the queue is empty.
func (q *Queue[T]) TryGet() (v T, ok bool) {
	if q.items.len() == 0 {
		return v, false
	}
	v = q.items.pop()
	q.admitPutter()
	return v, true
}

// Get removes and returns the head item, blocking the process while the
// queue is empty. ok is false only if the queue was closed and drained.
func (q *Queue[T]) Get(p *Proc) (v T, ok bool) {
	if v, ok = q.TryGet(); ok {
		return v, true
	}
	if q.closed {
		return v, false
	}
	p.mustBeRunning("Queue.Get")
	g := q.newWaiter(p, 0)
	q.getters.push(g)
	p.park()
	return q.received(g)
}

// GetTimeout is Get bounded by d of virtual time: it returns the head item
// (ok=true), queue closure (ok=false, timedOut=false), or expiry of the
// timeout with nothing received (timedOut=true). d ≤ 0 with an empty queue
// times out immediately.
func (q *Queue[T]) GetTimeout(p *Proc, d Time) (v T, ok bool, timedOut bool) {
	if v, ok = q.TryGet(); ok {
		return v, true, false
	}
	if q.closed {
		return v, false, false
	}
	if d <= 0 {
		return v, false, true
	}
	p.mustBeRunning("Queue.GetTimeout")
	g := q.newWaiter(p, tagEvent)
	q.getters.push(g)
	q.env.scheduleWakeup(q.env.now+d, p, tagTimeout)
	if p.park() == tagTimeout && !g.served {
		// Delivery of the timeout canceled g's wakeup, so g can no longer be
		// served; it is recycled when it reaches the head of the line.
		q.dropTimedOut()
		return v, false, true
	}
	// Served — possibly at the very instant the timeout was due, and woken
	// by the timeout: the item is ours either way.
	v, ok = q.received(g)
	return v, ok, false
}

// received collects what a served getter was handed and recycles it.
func (q *Queue[T]) received(g *qwaiter[T]) (v T, ok bool) {
	v, closed := g.v, g.closed
	q.recycle(g)
	if closed {
		// Woken by Close: drain any buffered remainder first.
		return q.TryGet()
	}
	return v, true
}

// popGetter removes and returns the first live blocked getter, or nil.
func (q *Queue[T]) popGetter() *qwaiter[T] {
	q.dropTimedOut()
	if q.getters.len() == 0 {
		return nil
	}
	g := q.getters.pop()
	g.served = true
	return g
}

// dropTimedOut recycles the getters at the head of the line whose timeout
// won: their wakeups were canceled, so they can never be served.
func (q *Queue[T]) dropTimedOut() {
	for q.getters.len() > 0 && (*q.getters.peek()).w.canceled {
		g := q.getters.pop()
		q.env.recycle(g.w)
		q.recycle(g)
	}
}

// admitPutter moves one blocked putter's value into freed buffer space.
func (q *Queue[T]) admitPutter() {
	if q.putters.len() == 0 || (q.cap > 0 && q.items.len() >= q.cap) {
		return
	}
	pw := q.putters.pop()
	q.items.push(pw.v)
	q.env.fireWakeup(pw.w)
}
