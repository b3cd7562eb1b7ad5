package protocol

// Replies is a free list of server replies, intrusive through
// Response.next: what a server stages in a registered buffer and WRITEs to
// its client, reusable once the WRITE has landed. Each reply it hands out
// carries a hold count — one hold for its sender, plus one per delivery —
// and the last Release zeroes it and puts it back. A reply built any other
// way (decoded off the wire, or made by a client for itself) has no pool:
// Retain and Release ignore it, and the GC takes it.
//
// A free list belongs to one store of one Env, which only one goroutine
// advances at a time, so it takes no lock.
type Replies struct {
	free *Response
	made int // replies allocated because the list was empty
}

// Get hands out a reply holding one hold, its sender's. It panics if the
// reply at the head of the list is held: someone retained it after its last
// release.
func (l *Replies) Get() *Response {
	r := l.free
	if r == nil {
		l.made++
		return &Response{holds: 1, pool: l}
	}
	if r.holds != 0 {
		panic("protocol: a free reply is still held")
	}
	l.free, r.next = r.next, nil
	r.holds = 1
	return r
}

// Counts reports how many replies the list has allocated and how many are
// free now; every other one is still held — by a sender whose message the
// fabric dropped, or by a reader that has not released it yet.
func (l *Replies) Counts() (made, free int) {
	for r := l.free; r != nil; r = r.next {
		free++
	}
	return l.made, free
}

// Retain adds a hold on r: one more reader (a delivery of its message) may
// read it until its own Release.
func (r *Response) Retain() {
	if r.pool != nil {
		r.holds++
	}
}

// Release drops one hold on r; the last one zeroes r and puts it back on its
// free list. Releasing a reply nobody holds panics.
func (r *Response) Release() {
	l := r.pool
	if l == nil {
		return
	}
	r.holds--
	if r.holds < 0 {
		panic("protocol: reply released more often than held")
	}
	if r.holds > 0 {
		return
	}
	*r = Response{pool: l, next: l.free}
	l.free = r
}
