package store

import (
	"fmt"
	"testing"

	"hybridkv/internal/hybridslab"
	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
	"hybridkv/internal/simnet"
	"hybridkv/internal/verbs"
)

func newTestDirectory(buckets int) *Directory {
	env := sim.NewEnv()
	fab := simnet.New(env, simnet.FDRInfiniBand())
	pd := verbs.OpenDevice(fab.AddNode("srv")).AllocPD()
	return NewDirectory(pd, buckets)
}

// readSlot is what a client's slot READ of bucket b returns. Every slot is
// published at its full length, empty ones included.
func (d *Directory) readSlot(t *testing.T, b int) protocol.DirSlot {
	t.Helper()
	v, n := d.dirMR.Segment(d.slotOff(b))
	slot, ok := v.(protocol.DirSlot)
	if !ok || n != protocol.DirSlotBytes {
		t.Fatalf("bucket %d holds %T published at %d bytes, want a DirSlot at %d", b, v, n, protocol.DirSlotBytes)
	}
	return slot
}

// slotFor returns key's slot, and whether key is what the slot holds.
func (d *Directory) slotFor(t *testing.T, key string) (protocol.DirSlot, bool) {
	t.Helper()
	slot := d.readSlot(t, d.bucket(key))
	return slot, slot.Digest == protocol.KeyDigest(key)
}

// segmentAt is what a client's value READ at off returns.
func (d *Directory) segmentAt(t *testing.T, off int64) (protocol.DirSegment, bool) {
	t.Helper()
	v, n := d.valMR.Segment(off)
	if n == 0 {
		return protocol.DirSegment{}, false
	}
	seg, ok := v.(protocol.DirSegment)
	if !ok {
		t.Fatalf("value segment holds %T", v)
	}
	return seg, true
}

// big is a value size that cannot ride in the slot.
const big = 8 << 10

func TestDirectoryPublishLifecycle(t *testing.T) {
	d := newTestDirectory(64)
	it := &hybridslab.Item{Key: "k", Value: "v1", ValueSize: big, Flags: 7, CAS: 1}

	d.Publish(it)
	slot, ok := d.slotFor(t, "k")
	if !ok {
		t.Fatal("no slot after Publish")
	}
	if slot.Kind != protocol.DirAtOffset || slot.Version%2 != 0 || slot.Value != nil {
		t.Fatalf("bad slot: %+v", slot)
	}
	seg, ok := d.segmentAt(t, slot.Off)
	if !ok {
		t.Fatal("no value segment after Publish")
	}
	if seg.Value != "v1" || seg.Version != slot.Version || seg.CAS != 1 || slot.Len != seg.WireSize() {
		t.Fatalf("bad segment: %+v under slot %+v", seg, slot)
	}

	// Mutation window: version goes odd, probing clients must fall back.
	d.PublishBegin("k")
	if s, _ := d.slotFor(t, "k"); s.Version%2 != 1 {
		t.Fatalf("PublishBegin left even version %d", s.Version)
	}

	// Commit of the replacement: old snapshot cleared, fresh even version,
	// fresh never-reused offset.
	it2 := &hybridslab.Item{Key: "k", Value: "v2", ValueSize: big, CAS: 2}
	d.Publish(it2)
	if v, ok := d.segmentAt(t, slot.Off); ok {
		t.Fatalf("superseded segment still readable: %v", v)
	}
	slot2, _ := d.slotFor(t, "k")
	if slot2.Off == slot.Off {
		t.Fatal("value offset reused")
	}
	if slot2.Version%2 != 0 || slot2.Version <= slot.Version {
		t.Fatalf("commit version %d not a fresh even after %d", slot2.Version, slot.Version)
	}
	if seg2, _ := d.segmentAt(t, slot2.Off); seg2.Value != "v2" || seg2.Version != slot2.Version {
		t.Fatalf("bad replacement segment: %+v", seg2)
	}

	// Unpublish: the slot reads as the empty slot, the snapshot as
	// emptiness, and the version advances.
	d.Unpublish("k")
	if s := d.readSlot(t, d.bucket("k")); s.Kind != protocol.DirEmpty || s.Digest != 0 {
		t.Fatalf("slot not empty after Unpublish: %+v", s)
	}
	if _, ok := d.segmentAt(t, slot2.Off); ok {
		t.Fatal("segment readable after Unpublish")
	}
	if d.versions[d.bucket("k")] <= slot2.Version {
		t.Fatal("Unpublish did not advance the version")
	}
}

// A value of at most DirInlineMax bytes rides in the slot: the slot READ is
// the whole lookup and nothing is published in the value MR.
func TestDirectoryInlinePublish(t *testing.T) {
	d := newTestDirectory(64)
	it := &hybridslab.Item{
		Key: "k", Value: "v1", ValueSize: protocol.DirInlineMax,
		Flags: 7, CAS: 3, ExpireAt: 5 * sim.Second,
	}
	d.Publish(it)
	slot, ok := d.slotFor(t, "k")
	if !ok {
		t.Fatal("no slot after Publish")
	}
	want := protocol.DirSlot{
		Digest: protocol.KeyDigest("k"), Version: slot.Version, Kind: protocol.DirInline,
		ValueSize: protocol.DirInlineMax, Flags: 7, CAS: 3, ExpireAt: int64(5 * sim.Second), Value: "v1",
	}
	if slot != want || slot.Version%2 != 0 {
		t.Fatalf("inline slot = %+v, want %+v", slot, want)
	}
	if d.nextOff != 0 {
		t.Fatalf("inline value allocated %d bytes of the value MR", d.nextOff)
	}

	// The seqlock covers the inline bytes: inside the window the slot is
	// odd, and the commit replaces bytes and version together.
	d.PublishBegin("k")
	if s, _ := d.slotFor(t, "k"); s.Version%2 != 1 {
		t.Fatalf("PublishBegin left even version %d", s.Version)
	}
	d.Publish(&hybridslab.Item{Key: "k", Value: "v2", ValueSize: 100, CAS: 4})
	slot2, _ := d.slotFor(t, "k")
	if slot2.Value != "v2" || slot2.CAS != 4 || slot2.Version != slot.Version+2 {
		t.Fatalf("replacement slot = %+v after version %d", slot2, slot.Version)
	}

	// One byte over the limit goes out of line.
	d.Publish(&hybridslab.Item{Key: "k", Value: "v3", ValueSize: protocol.DirInlineMax + 1})
	if s, _ := d.slotFor(t, "k"); s.Kind != protocol.DirAtOffset || s.Value != nil {
		t.Fatalf("value over DirInlineMax published as %+v", s)
	}
}

// A value crossing DirInlineMax in either direction leaves neither stale
// inline bytes in the slot nor a live segment behind a client's cached
// offset.
func TestDirectoryInlineBoundaryCrossing(t *testing.T) {
	d := newTestDirectory(64)
	small := func(v string) *hybridslab.Item { return &hybridslab.Item{Key: "k", Value: v, ValueSize: 512} }

	d.Publish(small("s1"))
	d.Publish(&hybridslab.Item{Key: "k", Value: "L", ValueSize: big})
	slot, _ := d.slotFor(t, "k")
	if slot.Kind != protocol.DirAtOffset || slot.Value != nil || slot.ValueSize != 0 {
		t.Fatalf("512 B -> 8 KB left inline state in the slot: %+v", slot)
	}
	off := slot.Off
	if seg, ok := d.segmentAt(t, off); !ok || seg.Value != "L" {
		t.Fatalf("8 KB value not at the offset the slot names: %+v", seg)
	}

	d.Publish(small("s2"))
	slot, _ = d.slotFor(t, "k")
	if slot.Kind != protocol.DirInline || slot.Value != "s2" || slot.Off != 0 || slot.Len != 0 {
		t.Fatalf("8 KB -> 512 B slot = %+v", slot)
	}
	if seg, ok := d.segmentAt(t, off); ok {
		t.Fatalf("a cached offset still reads the superseded 8 KB value: %+v", seg)
	}
}

func TestDirectoryCollisionDisplacement(t *testing.T) {
	d := newTestDirectory(1) // every key collides
	a := &hybridslab.Item{Key: "a", Value: "va", ValueSize: big}
	b := &hybridslab.Item{Key: "b", Value: "vb", ValueSize: 10}
	d.Publish(a)
	offA := d.entries["a"].slot.Off
	d.Publish(b)
	if d.Displacements != 1 {
		t.Fatalf("Displacements = %d", d.Displacements)
	}
	// The displaced key's snapshot must be cleared: clients holding its
	// cached offset would otherwise read a forever-stale value, because no
	// directory state invalidates it.
	if _, ok := d.segmentAt(t, offA); ok {
		t.Fatal("displaced key's segment still readable")
	}
	if d.entries["a"] != nil {
		t.Fatal("displaced key still has an entry")
	}
	if slot, ok := d.slotFor(t, "b"); !ok || slot.Value != "vb" {
		t.Fatalf("slot not owned by displacing key: %+v", slot)
	}
	// The displaced key opening a window must not touch the new owner's slot.
	d.PublishBegin("a")
	if slot, _ := d.slotFor(t, "b"); slot.Version%2 != 0 {
		t.Fatalf("a displaced key's window went odd on the owner's slot: %+v", slot)
	}
}

func TestDirectoryQuiesceKeepsVersions(t *testing.T) {
	d := newTestDirectory(64)
	small := &hybridslab.Item{Key: "k", Value: "v", ValueSize: 10}
	large := &hybridslab.Item{Key: "L", Value: "V", ValueSize: big}
	d.Publish(small)
	d.Publish(large)
	ver := d.versions[d.bucket("k")]
	off := d.entries["L"].slot.Off

	d.Quiesce()
	for b := 0; b < d.buckets; b++ {
		if s := d.readSlot(t, b); s != (protocol.DirSlot{}) {
			t.Fatalf("bucket %d not empty after Quiesce: %+v", b, s)
		}
	}
	if _, ok := d.segmentAt(t, off); ok {
		t.Fatal("segment readable after Quiesce")
	}
	if d.versions[d.bucket("k")] != ver {
		t.Fatal("Quiesce reset versions — republished slots could reuse one an old probe holds")
	}

	// Republish after recovery: version strictly advances past the pre-crash
	// one.
	d.Publish(small)
	if got := d.versions[d.bucket("k")]; got <= ver || got%2 != 0 {
		t.Fatalf("post-recovery version %d not a fresh even after %d", got, ver)
	}
}

func TestDirectoryEvictionIdentityCheck(t *testing.T) {
	d := newTestDirectory(64)
	cur := &hybridslab.Item{Key: "k", Value: "new", ValueSize: 10}
	stale := &hybridslab.Item{Key: "k", Value: "old", ValueSize: 10}
	d.Publish(cur)
	ver := d.versions[d.bucket("k")]

	// Eviction of a superseded incarnation must not disturb the published
	// current one.
	d.EvictionUpdate(stale, hybridslab.EvictDropped)
	if d.entries["k"] == nil || d.versions[d.bucket("k")] != ver {
		t.Fatal("stale item's eviction disturbed the current entry")
	}

	d.EvictionUpdate(cur, hybridslab.EvictDropped)
	if d.entries["k"] != nil {
		t.Fatal("current item's eviction did not unpublish")
	}
}

func TestDirectorySSDResidentPublishesMetadataOnly(t *testing.T) {
	d := newTestDirectory(64)
	// An on-SSD item has no exported setter, so drive one through a real
	// hybrid store: overcommit RAM until "k" is flushed out.
	env := sim.NewEnv()
	s := newStore(env, 2<<20, true)
	env.Spawn("seed", func(p *sim.Proc) {
		s.Set(p, "k", 32<<10, "v", 0, 0)
		for i := 0; i < 128 && !s.table["k"].OnSSD(); i++ {
			s.Set(p, fmt.Sprintf("fill%d", i), 32<<10, i, 0, 0)
		}
	})
	env.Run()
	it := s.table["k"]
	if it == nil || !it.OnSSD() {
		t.Skip("could not flush the item to SSD with this geometry")
	}
	d.Publish(it)
	slot, ok := d.slotFor(t, "k")
	if !ok {
		t.Fatal("no slot for SSD-resident item")
	}
	if slot.Kind != protocol.DirOnSSD || slot.Value != nil {
		t.Fatalf("SSD-resident item published as %+v", slot)
	}
	if d.nextOff != 0 {
		t.Fatalf("SSD-resident item published %d bytes of value segment", d.nextOff)
	}
}
