package protocol

import "hybridkv/internal/pool"

// NewReply hands out an OpResponse for request reqID off l, a store's free
// list of replies, holding its sender's hold; each delivery adds one (DESIGN
// §16). A reply built any other way — decoded off the wire, or a client's own
// — has no owner: Retain and Release ignore it, and the GC takes it.
func NewReply(l *pool.List[Response, *Response], reqID uint64) *Response {
	r := l.Get()
	r.Op, r.ReqID, r.owner = OpResponse, reqID, l
	return r
}

// Retain adds a hold on r: one more reader (a delivery of its message) may
// read it until its own Release. Retaining a free reply panics.
func (r *Response) Retain() { pool.Hold(r) }

// Release drops one hold on r; the last one puts it back on its free list,
// zeroed. Releasing a reply nobody holds panics.
func (r *Response) Release() {
	if pool.Drop(r) {
		r.owner.Put(r)
	}
}
