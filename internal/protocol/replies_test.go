package protocol

import "testing"

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

// A reply goes back to its free list on its last release only, zeroed, and
// is the next one handed out; a reply with no pool ignores the hold count.
func TestRepliesHoldCount(t *testing.T) {
	var l Replies
	r := l.Get()
	r.ReqID, r.Status, r.Value = 7, StatusOK, "v"
	r.Retain() // one delivery
	r.Release()
	if made, free := l.Counts(); made != 1 || free != 0 {
		t.Fatalf("after the sender's release with a delivery outstanding: made %d, free %d; want 1, 0", made, free)
	}
	r.Release()
	if made, free := l.Counts(); made != 1 || free != 1 {
		t.Fatalf("after the last release: made %d, free %d; want 1, 1", made, free)
	}
	if r.ReqID != 0 || r.Status != 0 || r.Value != nil {
		t.Errorf("a released reply keeps %+v", *r)
	}
	if again := l.Get(); again != r {
		t.Error("the released reply was not the next one handed out")
	}
	if made, _ := l.Counts(); made != 1 {
		t.Errorf("made %d replies, want 1", made)
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

// Releasing a reply below zero panics, and so does handing out a free reply
// someone retained after its last release.
func TestRepliesMisuse(t *testing.T) {
	var l Replies
	r := l.Get()
	r.Release()
	mustPanic(t, "a release below zero", r.Release)

	var m Replies
	s := m.Get()
	s.Release()
	s.Retain() // a stale pointer takes a hold on a free reply
	mustPanic(t, "handing out a held free reply", func() { m.Get() })
}
