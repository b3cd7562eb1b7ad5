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

// NewDirBucket hands out an empty bucket off l, a directory's free list of
// buckets, holding its builder's hold. Whatever else may read it — the MR
// segment it is published in, each READ that captures it, each reader of
// that READ — holds it too (Retain) until its own Release (DESIGN §16). A
// bucket built any other way has no owner: Retain and Release ignore it.
func NewDirBucket(l *pool.List[DirBucket, *DirBucket]) *DirBucket {
	b := l.Get()
	b.owner = l
	return b
}

// Retain adds a hold on b. Retaining a free bucket panics.
func (b *DirBucket) Retain() { pool.Hold(b) }

// Copy returns b's ways and spill count, as a reader that holds b copies them
// out before its Release. Copying a free bucket panics: its reader let go of
// it too soon.
func (b *DirBucket) Copy() DirBucket {
	if pool.Holders(b) < 0 {
		panic("protocol: a directory bucket copied after its last release")
	}
	return DirBucket{Ways: b.Ways, Spill: b.Spill}
}

// Release drops one hold on b; the last one puts it back on its free list,
// zeroed. Releasing a bucket nobody holds panics.
func (b *DirBucket) Release() {
	if pool.Drop(b) {
		b.owner.Put(b)
	}
}

// NewDirSegment hands out an empty value segment off l, a directory's free
// list of segments, holding its builder's hold; it is held as a bucket is.
func NewDirSegment(l *pool.List[DirSegment, *DirSegment]) *DirSegment {
	s := l.Get()
	s.owner = l
	return s
}

// Retain adds a hold on s. Retaining a free segment panics.
func (s *DirSegment) Retain() { pool.Hold(s) }

// Copy returns s's header and value, as a reader that holds s copies them
// out before its Release. Copying a free segment panics, as a bucket's does.
func (s *DirSegment) Copy() DirSegment {
	if pool.Holders(s) < 0 {
		panic("protocol: a directory segment copied after its last release")
	}
	return DirSegment{
		Digest: s.Digest, Version: s.Version,
		ValueSize: s.ValueSize, Flags: s.Flags, CAS: s.CAS, Value: s.Value,
	}
}

// Release drops one hold on s; the last one puts it back on its free list,
// zeroed. Releasing a segment nobody holds panics.
func (s *DirSegment) Release() {
	if pool.Drop(s) {
		s.owner.Put(s)
	}
}
