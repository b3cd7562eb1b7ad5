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

// Queue is an unbounded FIFO channel-like conduit between simulated
// processes: a put never blocks, a get blocks while the queue is empty.
// Handoff is instantaneous in virtual time; use it to model request queues,
// completion queues and similar structures. A producer that must be held back
// bounds itself with a Resource. A queue never closes: it lives as long as the
// processes that drain it, so a consumer loop has no exit.
type Queue[T any] struct {
	env     *Env
	items   ring[T]
	getters ring[*qwaiter[T]]
	spare   *qwaiter[T] // free list of waiter records
}

// qwaiter is one process blocked in Get; v receives the item. While it sits
// in the queue's getters ring the ring owns it; whoever pops it marks it
// served, and from then on the blocked process owns it and recycles it on
// waking.
type qwaiter[T any] struct {
	w      *wakeup
	v      T
	served bool // popped from its ring: an item was handed over
	next   *qwaiter[T]
}

// NewQueue returns a queue bound to env. A queue is unbounded: capacity must
// be ≤ 0, and a positive one panics — a Resource bounds admission.
func NewQueue[T any](env *Env, capacity int) *Queue[T] {
	if capacity > 0 {
		panic("sim: a Queue is unbounded; bound its producers with a sim.Resource")
	}
	return &Queue[T]{env: env}
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

// TryPut appends v, or hands it to the first blocked getter. It never
// blocks and never fails, so it may be called from any process or callback.
func (q *Queue[T]) TryPut(v T) {
	if g := q.popGetter(); g != nil {
		g.v = v
		q.env.fireWakeup(g.w)
		return
	}
	q.items.push(v)
}

// TryGet removes and returns the head item without blocking. ok is false if
// the queue is empty.
func (q *Queue[T]) TryGet() (v T, ok bool) {
	if q.items.len() == 0 {
		return v, false
	}
	return q.items.pop(), true
}

// Get removes and returns the head item, blocking the process while the
// queue is empty. ok is always true: a queue never closes.
func (q *Queue[T]) Get(p *Proc) (v T, ok bool) {
	if v, ok = q.TryGet(); ok {
		return v, true
	}
	p.mustBeRunning("Queue.Get")
	g := q.newWaiter(p, 0)
	q.getters.push(g)
	p.park()
	return q.received(g), true
}

// GetTimeout is Get bounded by d of virtual time: it returns the head item
// with ok=true, or ok=false once the timeout expires with nothing received.
// d ≤ 0 with an empty queue times out immediately.
func (q *Queue[T]) GetTimeout(p *Proc, d Time) (v T, ok bool) {
	if v, ok = q.TryGet(); ok || d <= 0 {
		return v, ok
	}
	p.mustBeRunning("Queue.GetTimeout")
	g := q.newWaiter(p, tagEvent)
	q.getters.push(g)
	q.env.scheduleWakeup(q.env.now+d, p, tagTimeout)
	if p.park() == tagTimeout && !g.served {
		// Delivery of the timeout canceled g's wakeup, so g can no longer be
		// served; it is recycled when it reaches the head of the line.
		q.dropTimedOut()
		return v, false
	}
	// Served — possibly at the very instant the timeout was due, and woken
	// by the timeout: the item is ours either way.
	return q.received(g), true
}

// received collects the item a served getter was handed and recycles it.
func (q *Queue[T]) received(g *qwaiter[T]) T {
	v := g.v
	q.recycle(g)
	return v
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
