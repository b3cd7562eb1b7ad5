package store

import (
	"fmt"
	"slices"
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

// bucketAt is what a client's READ of bucket b copies out: every way, at the
// bucket stride. Every bucket is published at its full length, empty ways
// included.
func (d *Directory) bucketAt(t *testing.T, b int) protocol.DirBucket {
	t.Helper()
	v, n := d.dirMR.Segment(int64(b) * protocol.DirBucketBytes)
	bucket, ok := v.(*protocol.DirBucket)
	if !ok || n != protocol.DirBucketBytes {
		t.Fatalf("bucket %d holds %T published at %d bytes, want a *DirBucket at %d", b, v, n, protocol.DirBucketBytes)
	}
	return bucket.Copy()
}

// slotAt is way w of bucket b as a client's bucket READ returns it.
func (d *Directory) slotAt(t *testing.T, b, w int) protocol.DirSlot {
	t.Helper()
	return d.bucketAt(t, b).Ways[w]
}

// entry returns key's published entry, or nil when key owns no way.
func (d *Directory) entry(key string) *dirEntry {
	if _, w := d.find(key, protocol.KeyDigest(key)); w >= 0 {
		return d.entries[w]
	}
	return nil
}

// version is the seqlock version of the way key owns; the test fails when
// it owns none.
func (d *Directory) version(t *testing.T, key string) uint64 {
	t.Helper()
	_, w := d.find(key, protocol.KeyDigest(key))
	if w < 0 {
		t.Fatalf("%q owns no way", key)
	}
	return d.versions[w]
}

// slotFor returns the slot a client's bucket READs find for key — its home
// bucket's, or its alternate's when the home lacks it and counts spills —
// and whether any way holds it.
func (d *Directory) slotFor(t *testing.T, key string) (protocol.DirSlot, bool) {
	t.Helper()
	digest := protocol.KeyDigest(key)
	home := d.bucketAt(t, d.home(digest))
	if slot, ok := home.Way(digest); ok || home.Spill == 0 {
		return slot, ok
	}
	alt := d.bucketAt(t, protocol.AltBucket(d.home(digest), digest, d.buckets))
	return alt.Way(digest)
}

// segmentAt is what a client's value READ at off returns.
func (d *Directory) segmentAt(t *testing.T, off int64) (protocol.DirSegment, bool) {
	t.Helper()
	v, n := d.valMR.Segment(off)
	if n == 0 {
		return protocol.DirSegment{}, false
	}
	seg, ok := v.(*protocol.DirSegment)
	if !ok {
		t.Fatalf("value segment holds %T", v)
	}
	return seg.Copy(), true
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

	// Unpublish: the bucket reads as the empty bucket, the snapshot as
	// emptiness, and the way's version advances.
	_, w := d.find("k", protocol.KeyDigest("k"))
	d.Unpublish("k")
	if b := d.bucketAt(t, d.home(protocol.KeyDigest("k"))); b != (protocol.DirBucket{}) {
		t.Fatalf("bucket not empty after Unpublish: %+v", b)
	}
	if _, ok := d.segmentAt(t, slot2.Off); ok {
		t.Fatal("segment readable after Unpublish")
	}
	if d.versions[w] <= slot2.Version {
		t.Fatal("Unpublish did not advance the version")
	}
}

// A value of at most DirInlineMax bytes rides in the slot: the slot READ is
// the whole lookup and nothing is published in the value MR.
func TestDirectoryInlinePublish(t *testing.T) {
	d := newTestDirectory(64)
	it := &hybridslab.Item{
		Key: "k", Value: "v1", ValueSize: protocol.DirInlineMax,
		Flags: 7, CAS: 3,
	}
	d.Publish(it)
	slot, ok := d.slotFor(t, "k")
	if !ok {
		t.Fatal("no slot after Publish")
	}
	want := protocol.DirSlot{
		Digest: protocol.KeyDigest("k"), Version: slot.Version, Kind: protocol.DirInline,
		ValueSize: protocol.DirInlineMax, Flags: 7, CAS: 3, Value: "v1",
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

// Two keys that hash to one bucket each own a way of it and keep it across
// republishes; a window or a removal on one way leaves the other way's slot
// and version as they were; a third key takes displaceWay and clears its
// occupant's segment; a key with no way takes an empty one without
// displacing anything.
func TestDirectoryCollisionDisplacement(t *testing.T) {
	d := newTestDirectory(1) // every key hashes to bucket 0
	a := &hybridslab.Item{Key: "a", Value: "va", ValueSize: 10}
	b := &hybridslab.Item{Key: "b", Value: "vb", ValueSize: big}
	c := &hybridslab.Item{Key: "c", Value: "vc", ValueSize: 10}
	owner := func(w int, key string) {
		t.Helper()
		if s := d.slotAt(t, 0, w); s.Digest != protocol.KeyDigest(key) || s.Version%2 != 0 {
			t.Fatalf("way %d = %+v, want %q's committed slot", w, s, key)
		}
	}
	// untouched runs step and checks that way w's slot and version are what
	// they were before it.
	untouched := func(w int, step func()) {
		t.Helper()
		slot, ver := d.slotAt(t, 0, w), d.versions[w]
		step()
		if s := d.slotAt(t, 0, w); s != slot || d.versions[w] != ver {
			t.Fatalf("way %d went from %+v (version %d) to %+v (version %d)", w, slot, ver, s, d.versions[w])
		}
	}

	d.Publish(a)
	d.Publish(b)
	owner(0, "a")
	owner(1, "b")
	untouched(1, func() { d.Publish(&hybridslab.Item{Key: "a", Value: "va2", ValueSize: 10}) })
	owner(0, "a")
	if s, ok := d.slotFor(t, "a"); !ok || s.Value != "va2" {
		t.Fatalf("a republished as %+v", s)
	}
	untouched(1, func() { d.PublishBegin("a") })
	if s := d.slotAt(t, 0, 0); s.Version%2 != 1 {
		t.Fatalf("PublishBegin left way 0 even: %+v", s)
	}
	untouched(0, func() { d.PublishBegin("b") })
	untouched(1, func() { d.Publish(a) })
	untouched(0, func() { d.Publish(b) })
	if d.Displacements != 0 {
		t.Fatalf("two keys in two ways displaced %d times", d.Displacements)
	}

	// A third key takes displaceWay: b leaves the directory, and its snapshot
	// must be cleared — clients holding its cached offset would otherwise read
	// a forever-stale value, because no directory state invalidates it.
	offB := d.entry("b").slot.Off
	untouched(0, func() { d.Publish(c) })
	if displaceWay != 1 || d.Displacements != 1 || d.entry("b") != nil {
		t.Fatalf("displaceWay %d, Displacements %d, b's entry %+v", displaceWay, d.Displacements, d.entry("b"))
	}
	owner(1, "c")
	if _, ok := d.segmentAt(t, offB); ok {
		t.Fatal("displaced key's segment still readable")
	}
	// The displaced key opening a window touches neither way.
	untouched(0, func() { untouched(1, func() { d.PublishBegin("b") }) })

	// Unpublish empties its way alone, and a key with no way takes the empty
	// one without displacing.
	untouched(1, func() { d.Unpublish("a") })
	if s := d.slotAt(t, 0, 0); s != (protocol.DirSlot{}) {
		t.Fatalf("way 0 after Unpublish = %+v", s)
	}
	untouched(1, func() { d.Publish(b) })
	owner(0, "b")
	if d.Displacements != 1 {
		t.Fatalf("publishing into an empty way displaced: %d", d.Displacements)
	}
}

// A key whose home bucket is full spills to its alternate, and the home's
// header counts it until it leaves — by removal or by displacement; only a
// key whose home and alternate are both full displaces, and then the home's
// last way.
func TestDirectorySpillThenDisplace(t *testing.T) {
	const buckets = 16
	d := newTestDirectory(buckets)
	used := map[string]bool{}
	// keyWhere returns an unused key whose digest satisfies pred.
	keyWhere := func(pred func(home, digest uint64) bool) *hybridslab.Item {
		for i := 0; ; i++ {
			key := fmt.Sprintf("k%d", i)
			digest := protocol.KeyDigest(key)
			if !used[key] && pred(digest%buckets, digest) {
				used[key] = true
				return &hybridslab.Item{Key: key, Value: "v" + key, ValueSize: 10}
			}
		}
	}
	homedAt := func(b int) *hybridslab.Item {
		return keyWhere(func(home, _ uint64) bool { return int(home) == b })
	}
	alt := func(it *hybridslab.Item) int {
		digest := protocol.KeyDigest(it.Key)
		return protocol.AltBucket(d.home(digest), digest, buckets)
	}
	lives := func(it *hybridslab.Item, want int) {
		t.Helper()
		if b, w := d.find(it.Key, protocol.KeyDigest(it.Key)); w < 0 || b != want {
			t.Fatalf("%q lives in bucket %d way %d, want bucket %d", it.Key, b, w, want)
		}
		if s, ok := d.slotFor(t, it.Key); !ok || s.Value != it.Value {
			t.Fatalf("a client finds %+v (%v) for %q", s, ok, it.Key)
		}
	}
	spill := func(b int, want uint16) {
		t.Helper()
		if got := d.bucketAt(t, b).Spill; got != want || d.spills[b] != want {
			t.Fatalf("bucket %d publishes spill count %d (holds %d), want %d", b, got, d.spills[b], want)
		}
	}

	const h = 3
	a, b, c := homedAt(h), homedAt(h), homedAt(h)
	x := homedAt(alt(c)) // c's alternate is x's home
	for _, it := range []*hybridslab.Item{x, a, b, c} {
		d.Publish(it)
	}
	lives(a, h)
	lives(b, h)
	lives(c, alt(c)) // the home was full: c spilled, beside x
	spill(h, 1)
	spill(alt(c), 0)
	d.Publish(&hybridslab.Item{Key: c.Key, Value: "v2", ValueSize: 10}) // a spilled key keeps its way
	c.Value = "v2"
	lives(c, alt(c))
	spill(h, 1)
	d.Unpublish(c.Key)
	spill(h, 0)
	if d.entry(c.Key) != nil {
		t.Fatal("c still published after Unpublish")
	}
	d.Publish(c)
	spill(h, 1)
	if d.Displacements != 0 {
		t.Fatalf("spilling displaced %d keys", d.Displacements)
	}

	// z, homed at c's alternate (full: x and c), with its own alternate
	// full too, displaces that bucket's last way — c, spilled in from h —
	// and h counts one spill fewer.
	z := keyWhere(func(home, digest uint64) bool {
		return int(home) == alt(c) && protocol.AltBucket(int(home), digest, buckets) == h
	})
	d.Publish(z)
	lives(z, alt(c))
	lives(x, alt(c))
	if d.Displacements != 1 || d.entry(c.Key) != nil {
		t.Fatalf("Displacements %d, c's entry %+v", d.Displacements, d.entry(c.Key))
	}
	spill(h, 0)
	spill(alt(c), 0)

	// Quiesce empties every header with the ways.
	d.Unpublish(x.Key)
	d.Publish(c)
	lives(c, alt(c))
	spill(h, 1)
	d.Quiesce()
	for b := 0; b < buckets; b++ {
		spill(b, 0)
	}
}

func TestDirectoryQuiesceKeepsVersions(t *testing.T) {
	d := newTestDirectory(64)
	small := &hybridslab.Item{Key: "k", Value: "v", ValueSize: 10}
	large := &hybridslab.Item{Key: "L", Value: "V", ValueSize: big}
	d.Publish(small)
	d.Publish(large)
	ver := d.version(t, "k")
	off := d.entry("L").slot.Off
	versions := slices.Clone(d.versions)

	d.Quiesce()
	for b := 0; b < d.buckets; b++ {
		if s := d.bucketAt(t, b); s != (protocol.DirBucket{}) {
			t.Fatalf("bucket %d not empty after Quiesce: %+v", b, s)
		}
	}
	if _, ok := d.segmentAt(t, off); ok {
		t.Fatal("segment readable after Quiesce")
	}
	if !slices.Equal(d.versions, versions) {
		t.Fatal("Quiesce reset versions — republished slots could reuse one an old probe holds")
	}

	// Republish after recovery: the key takes its old way back (the first
	// empty one) and its version strictly advances past the pre-crash one.
	d.Publish(small)
	if got := d.version(t, "k"); got <= ver || got%2 != 0 {
		t.Fatalf("post-recovery version %d not a fresh even after %d", got, ver)
	}
}

func TestDirectoryEvictionIdentityCheck(t *testing.T) {
	d := newTestDirectory(64)
	cur := &hybridslab.Item{Key: "k", Value: "new", ValueSize: 10}
	stale := &hybridslab.Item{Key: "k", Value: "old", ValueSize: 10}
	d.Publish(cur)
	ver := d.version(t, "k")

	// Eviction of a superseded incarnation must not disturb the published
	// current one.
	d.EvictionUpdate(stale, hybridslab.EvictDropped)
	if d.entry("k") == nil || d.version(t, "k") != ver {
		t.Fatal("stale item's eviction disturbed the current entry")
	}

	d.EvictionUpdate(cur, hybridslab.EvictDropped)
	if d.entry("k") != nil {
		t.Fatal("current item's eviction did not unpublish")
	}
}

func TestDirectorySSDResidentPublishesMetadataOnly(t *testing.T) {
	d := newTestDirectory(64)
	// An on-SSD item has no exported setter, so drive one through a real
	// hybrid store: overcommit RAM until "k" is flushed out.
	env := sim.NewEnv()
	s := newStore(env, 2<<20, true)
	sim.Drive(t, env, "seed", func(p *sim.Proc) {
		s.Set(p, "k", 32<<10, "v", 0, 0)
		for i := 0; i < 128 && !s.table["k"].OnSSD(); i++ {
			s.Set(p, fmt.Sprintf("fill%d", i), 32<<10, i, 0, 0)
		}
	})
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
