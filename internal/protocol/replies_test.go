package protocol

import (
	"testing"

	"hybridkv/internal/pool"
)

// mustPanic reports whether fn panicked.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// replies is a store's free list of replies.
type replies = pool.List[Response, *Response]

// A reply goes back to its free list on its last release only, zeroed, and
// is the next one handed out; a reply with no owner ignores the hold count.
func TestRepliesHoldCount(t *testing.T) {
	var l replies
	r := NewReply(&l, 7)
	if r.Op != OpResponse || r.ReqID != 7 {
		t.Fatalf("NewReply handed out %+v, want an OpResponse for request 7", *r)
	}
	r.Status, r.Value = StatusOK, "v"
	r.Retain() // one delivery
	r.Release()
	if l.Made != 1 || l.Len() != 0 {
		t.Fatalf("after the sender's release with a delivery outstanding: made %d, free %d; want 1, 0", l.Made, l.Len())
	}
	r.Release()
	if l.Made != 1 || l.Len() != 1 {
		t.Fatalf("after the last release: made %d, free %d; want 1, 1", l.Made, l.Len())
	}
	if r.ReqID != 0 || r.Status != 0 || r.Value != nil || r.owner != nil {
		t.Errorf("a released reply keeps %+v", *r)
	}
	if again := NewReply(&l, 8); again != r || again.owner != &l {
		t.Error("the released reply was not the next one handed out, owned by its list")
	}
	if l.Made != 1 {
		t.Errorf("made %d replies, want 1", l.Made)
	}

	decoded, err := UnmarshalResponse((&Response{Op: OpResponse, ReqID: 9}).Marshal())
	if err != nil {
		t.Fatal(err)
	}
	decoded.Retain()
	decoded.Release()
	decoded.Release()
	if decoded.ReqID != 9 {
		t.Error("releasing a reply with no pool changed it")
	}
}

// Releasing a reply below zero panics, and so does retaining a free reply
// and handing out a free reply someone wrote over after its last release.
func TestRepliesMisuse(t *testing.T) {
	var l replies
	r := NewReply(&l, 1)
	r.Release()
	mustPanic(t, "a release below zero", r.Release)
	mustPanic(t, "a stale pointer's hold on a free reply", r.Retain)

	var m replies
	s := NewReply(&m, 2)
	s.Release()
	*s = Response{ReqID: 2} // a stale pointer writes the free reply over
	mustPanic(t, "handing out a free reply written over", func() { NewReply(&m, 3) })
}
