package pagecache

import (
	"testing"

	"hybridkv/internal/blockdev"
	"hybridkv/internal/sim"
)

func durableFixture(t *testing.T) (*sim.Env, *File) {
	t.Helper()
	env := sim.NewEnv()
	dev := blockdev.New(env, blockdev.SATA(), 1<<30)
	f := New(env, dev, DefaultParams()).OpenFile(0, 16<<20)
	exts := []Extent{
		{Off: 0, Size: 512, Payload: "hdr"},
		{Off: 512, Size: 4096, Payload: "slot0"},
		{Off: 4608, Size: 4096, Payload: "slot1"}, // adjacent to slot0
		{Off: 16384, Size: 512, Payload: "commit"},
	}
	var ok bool
	sim.Drive(t, env, "w", func(p *sim.Proc) { ok = f.WriteExtents(p, 0, 16896, exts, Direct) })
	if !ok {
		t.Fatal("WriteExtents failed with no faults armed")
	}
	return env, f
}

// Discard is keyed on exact extent offsets: discarding an offset that lies
// INSIDE an extent (partially overlapping, not aligned to its start) must
// remove nothing — extent bookkeeping is not byte-range arithmetic, and a
// sloppy caller must not silently shred a neighbor's durable record.
func TestDiscardPartialOverlapIsNoop(t *testing.T) {
	_, f := durableFixture(t)
	f.Discard(100)  // inside the header extent
	f.Discard(2048) // inside slot0
	f.Discard(4607) // one byte before slot1's start
	for _, off := range []int64{0, 512, 4608, 16384} {
		if _, ok := f.Peek(off); !ok {
			t.Errorf("logical extent at %d vanished after an interior-offset Discard", off)
		}
		if _, ok := f.PeekDurable(off); !ok {
			t.Errorf("durable extent at %d vanished after an interior-offset Discard", off)
		}
	}
	// An exact-offset discard still removes exactly its extent.
	f.Discard(512)
	if _, ok := f.PeekDurable(512); ok {
		t.Error("exact-offset Discard left the extent durable")
	}
	if _, ok := f.PeekDurable(4608); !ok {
		t.Error("Discard of slot0 took the adjacent slot1 with it")
	}
}

// DurableEnd is the bump-allocator resume point: with adjacent extents it is
// the end of the highest one, and it retreats as the tail extents are
// discarded — through an adjacent pair down to zero.
func TestDurableEndAcrossAdjacentExtents(t *testing.T) {
	_, f := durableFixture(t)
	if end := f.DurableEnd(); end != 16896 {
		t.Fatalf("DurableEnd = %d, want 16896 (end of the commit record)", end)
	}
	f.Discard(16384)
	if end := f.DurableEnd(); end != 8704 {
		t.Errorf("DurableEnd = %d after dropping the tail, want 8704 (end of slot1)", end)
	}
	f.Discard(4608)
	if end := f.DurableEnd(); end != 4608 {
		t.Errorf("DurableEnd = %d, want 4608: slot0 ends exactly where its adjacent twin began", end)
	}
	f.Discard(512)
	f.Discard(0)
	if end := f.DurableEnd(); end != 0 {
		t.Errorf("DurableEnd = %d on an empty durable view, want 0", end)
	}
}

// RecoverExtents after a full wipe rebuilds an EMPTY logical view: nothing
// resurrects, and logical-only placements (SetExtent, never persisted) do
// not survive the restart either — they were RAM state, and a cold restart
// has no RAM.
func TestRecoverExtentsAfterWipe(t *testing.T) {
	_, f := durableFixture(t)
	f.SetExtent(20480, 512, "ram-only") // logical view only, never durable
	for _, off := range []int64{0, 512, 4608, 16384} {
		f.Discard(off)
	}
	f.RecoverExtents()
	if n := len(f.extents); n != 0 {
		t.Errorf("recovered logical view holds %d extents after a full wipe, want 0", n)
	}
	if _, ok := f.Peek(20480); ok {
		t.Error("logical-only extent survived a cold restart")
	}
	// And the view is rebuildable again after fresh writes.
	var ok bool
	sim.Drive(t, f.c.env, "w2", func(p *sim.Proc) {
		ok = f.WriteExtents(p, 0, 512, []Extent{{Off: 0, Size: 512, Payload: "fresh"}}, Direct)
	})
	if !ok {
		t.Fatal("post-wipe write failed")
	}
	f.RecoverExtents()
	if v, found := f.Peek(0); !found || v != "fresh" {
		t.Errorf("post-wipe write not recovered: (%v, %v)", v, found)
	}
}
