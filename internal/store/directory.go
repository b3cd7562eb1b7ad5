package store

import (
	"fmt"

	"hybridkv/internal/hybridslab"
	"hybridkv/internal/pool"
	"hybridkv/internal/protocol"
	"hybridkv/internal/verbs"
)

// This file implements the server-bypass read-side index: the store's live
// items published into registered MRs so clients resolve GET hits with
// one-sided RDMA READs and zero server CPU (RFP's remote-fetching paradigm,
// with HiStore's published-and-versioned index making it safe).
//
// Layout. The directory MR is a bucket array; a key's home bucket is
// KeyDigest(key) mod Buckets, and a bucket is protocol.DirWays fixed-size
// slots (protocol.DirSlotBytes each) published together, with the bucket's
// spill count, as one protocol.DirBucket. One READ of a key's home bucket
// answers the lookup from the way whose digest is the key's — a second READ,
// of its alternate, when the home lacks it and counts spills
// (protocol.DirSlotKind): a RAM-resident value of at most
// protocol.DirInlineMax bytes is carried in the slot itself, under the
// slot's version; a larger one is published as an immutable snapshot
// segment (protocol.DirSegment) at a fresh offset in the value MR, which the
// slot names; an SSD-resident key publishes metadata only; anything else
// reads as no matching way. Value offsets grow monotonically and are never
// reused, so a segment that still exists at an offset IS the value that was
// published there — a client holding a cached offset either reads that exact
// snapshot or reads emptiness and falls back to the bucket. Each way carries
// its own seqlock-style version: odd while a mutation window is open, bumped
// to a fresh even value at every commit, so probing clients detect
// in-progress or changed state without locks. Every bucket, empty ways
// included, is published at its full length: a bucket READ moves
// protocol.DirBucketBytes whatever it finds.
//
// Placement: spill, then displace. A published key keeps its way across
// republishes. A new key takes its home bucket's first empty way; when every
// way there holds another key it spills to the first empty way of its
// alternate (protocol.AltBucket), and the home counts one more spill; only
// when both buckets are full does it displace the home's last occupant
// (displaceWay).
//
// Coherence. The store calls PublishBegin/Publish/Unpublish around every
// command-path mutation; the slab manager's eviction notifications arrive
// through EvictionUpdate (identity-checked, since eviction may be acting on
// a superseded incarnation of a key). Crash quiesces the directory — all
// buckets emptied, all segments cleared, versions retained — so clients
// READing a dead server's still-registered MRs observe emptiness, never
// stale values.

// valArenaBytes sizes the value MR's virtual offset space. Offsets are
// monotonically allocated and never reused, so this only bounds total bytes
// ever published, not live bytes.
const valArenaBytes = 1 << 40

// displaceWay is the way a key takes in its home bucket when every way there
// and in its alternate holds another key: the last one, so the first way's
// occupant stays until it leaves and only one of a full bucket's keys turns
// over (DESIGN.md §11).
const displaceWay = protocol.DirWays - 1

// maxSpill is the most spills a bucket header can count (two bytes on the
// wire): a key that would count one more displaces instead. With the default
// geometry it is out of reach — a bucket's spills each hold a way elsewhere,
// and there are fewer other ways than this.
const maxSpill = 1<<16 - 1

// emptyBucket is what a bucket with no owned way holds: one record shared by
// every directory, built by hand, so it counts no holds and is never put
// back, and never written.
var emptyBucket = &protocol.DirBucket{}

// dirEntry is one published key: the item it mirrors and the slot last
// committed for it (slot.Off/Len name its value-MR segment when the value
// is out of line). The entry holds its item until another replaces it or the
// key is unpublished: EvictionUpdate compares identity, which a reused item
// would fake.
type dirEntry struct {
	it   *hybridslab.Item
	slot protocol.DirSlot
}

// Directory is the MR-backed published index. It implements ReadView.
type Directory struct {
	dirMR   *verbs.MR
	valMR   *verbs.MR
	buckets int
	// versions is the per-way seqlock, indexed like entries; it survives
	// Quiesce so slots republished after a restart always carry advanced
	// versions.
	versions []uint64
	// entries holds bucket b's ways at [b*DirWays, (b+1)*DirWays); a way's
	// owner is its entry's item's key, and nil is an empty way.
	entries []*dirEntry
	// spills[b] counts the keys homed at bucket b that live in their
	// alternate; published in b's header.
	spills  []uint16
	nextOff int64
	// BucketRecs and SegmentRecs are the free lists the published records come
	// off: a record is taken per publish, never rewritten, and goes back
	// when its segment and every READ that captured it have let go.
	BucketRecs  pool.List[protocol.DirBucket, *protocol.DirBucket]
	SegmentRecs pool.List[protocol.DirSegment, *protocol.DirSegment]

	// Stats
	Displacements int64
}

// NewDirectory registers the directory and value MRs on pd (setup-time, no
// simulated cost — directory bring-up is not on the measured path).
// buckets ≤ 0 selects the default geometry, 2^15 buckets of
// protocol.DirWays ways: the one every cluster server publishes.
func NewDirectory(pd *verbs.PD, buckets int) *Directory {
	if buckets <= 0 {
		buckets = 1 << 15
	}
	d := &Directory{
		dirMR:    pd.RegisterArrayMRSetup(buckets*protocol.DirBucketBytes, protocol.DirBucketBytes),
		valMR:    pd.RegisterMRSetup(valArenaBytes),
		buckets:  buckets,
		versions: make([]uint64, buckets*protocol.DirWays),
		entries:  make([]*dirEntry, buckets*protocol.DirWays),
		spills:   make([]uint16, buckets),
	}
	d.Quiesce() // a new directory is a quiesced one: every bucket published, empty
	return d
}

// Info describes the directory for the OpDirQuery bootstrap response.
func (d *Directory) Info() protocol.DirectoryInfo {
	return protocol.DirectoryInfo{
		DirMR: d.dirMR.LKey(), ValMR: d.valMR.LKey(),
		Buckets: d.buckets, InlineMax: protocol.DirInlineMax, Ways: protocol.DirWays,
	}
}

// home is the home bucket of a key with this digest.
func (d *Directory) home(digest uint64) int { return int(digest % uint64(d.buckets)) }

// ways returns the index range of bucket b's ways in entries and versions.
func ways(b int) (lo, hi int) { return b * protocol.DirWays, (b + 1) * protocol.DirWays }

// wayOf returns the index of the way key, whose digest is digest, owns in
// bucket b, or -1. An entry's slot carries its key's digest, so only a way
// whose digest matches has its key compared.
func (d *Directory) wayOf(b int, key string, digest uint64) int {
	lo, hi := ways(b)
	for w := lo; w < hi; w++ {
		if e := d.entries[w]; e != nil && e.slot.Digest == digest && e.it.Key == key {
			return w
		}
	}
	return -1
}

// emptyWay returns the index of bucket b's first empty way, or -1.
func (d *Directory) emptyWay(b int) int {
	lo, hi := ways(b)
	for w := lo; w < hi; w++ {
		if d.entries[w] == nil {
			return w
		}
	}
	return -1
}

// find returns the bucket key (whose digest is digest) lives in and the index
// of the way it owns there, or -1 when it owns none (fresh insert, or
// displaced by colliding keys). A key lives in its home bucket or, spilled,
// in its alternate, which is searched — as a client does — only while the
// home counts spills.
func (d *Directory) find(key string, digest uint64) (b, w int) {
	b = d.home(digest)
	if w = d.wayOf(b, key, digest); w >= 0 || d.spills[b] == 0 {
		return b, w
	}
	alt := protocol.AltBucket(b, digest, d.buckets)
	if w = d.wayOf(alt, key, digest); w >= 0 {
		return alt, w
	}
	return b, -1
}

// place returns the bucket and way a key that owns none takes: the first
// empty way of its home, else the first empty way of its alternate —
// counted, and published, as a spill of the home — else the home's
// displaceWay.
func (d *Directory) place(digest uint64) (b, w int) {
	home := d.home(digest)
	if w = d.emptyWay(home); w >= 0 {
		return home, w
	}
	alt := protocol.AltBucket(home, digest, d.buckets)
	if w = d.emptyWay(alt); w >= 0 && d.spills[home] < maxSpill {
		d.spills[home]++
		d.writeBucket(home)
		return alt, w
	}
	lo, _ := ways(home)
	return home, lo + displaceWay
}

// leave notes that e's key no longer lives in bucket b: when b is its
// alternate, its home counts one spill fewer.
func (d *Directory) leave(b int, e *dirEntry) {
	if home := d.home(e.slot.Digest); home != b {
		d.spills[home]--
		d.writeBucket(home)
	}
}

// writeBucket publishes bucket b's ways and spill count, always at the full
// bucket length: a fresh record off BucketRecs, which the bucket's segment holds
// from here on, or the shared empty bucket when no way is owned and nothing
// spilled.
func (d *Directory) writeBucket(b int) {
	off := int64(b) * protocol.DirBucketBytes
	lo, hi := ways(b)
	if d.spills[b] == 0 && !d.owns(lo, hi) {
		d.dirMR.SetSegment(off, emptyBucket, protocol.DirBucketBytes)
		return
	}
	bucket := protocol.NewDirBucket(&d.BucketRecs)
	bucket.Spill = d.spills[b]
	for w := lo; w < hi; w++ {
		if e := d.entries[w]; e != nil {
			bucket.Ways[w-lo] = e.slot
		}
	}
	d.dirMR.SetSegment(off, bucket, protocol.DirBucketBytes)
	bucket.Release()
}

// owns reports whether any of the ways [lo, hi) holds a key.
func (d *Directory) owns(lo, hi int) bool {
	for w := lo; w < hi; w++ {
		if d.entries[w] != nil {
			return true
		}
	}
	return false
}

// commitVersion closes way w's mutation window (or skips one that was never
// opened) with a fresh even version.
func (d *Directory) commitVersion(w int) uint64 {
	v := d.versions[w]
	if v%2 == 1 {
		v++
	} else {
		v += 2
	}
	d.versions[w] = v
	return v
}

// drop withdraws e's out-of-line snapshot, if it has one.
func (d *Directory) drop(e *dirEntry) {
	if e.slot.Kind == protocol.DirAtOffset {
		d.valMR.ClearSegment(e.slot.Off)
	}
}

// PublishBegin opens key's mutation window: its way's version goes odd so
// probing clients re-probe or fall back to RPC until the commit; the
// bucket's other ways are republished as they were. A no-op when key owns
// no way.
func (d *Directory) PublishBegin(key string) {
	b, w := d.find(key, protocol.KeyDigest(key))
	if w < 0 {
		return
	}
	if d.versions[w]%2 == 0 {
		d.versions[w]++
	}
	d.entries[w].slot.Version = d.versions[w]
	d.writeBucket(b)
}

// Publish commits key's current item under a fresh even version of its way:
// the previous incarnation (and any displaced occupant) leaves the
// directory, and the slot lands carrying the value itself when it fits
// protocol.DirInlineMax, naming a fresh immutable snapshot in the value MR
// when it does not, or flagged SSD-resident — metadata only, clients fall
// back to RPC — when the value is not in RAM.
func (d *Directory) Publish(it *hybridslab.Item) {
	key := it.Key
	digest := protocol.KeyDigest(key)
	b, w := d.find(key, digest)
	if w < 0 {
		b, w = d.place(digest)
	}
	e := d.entries[w]
	if e == nil {
		e = new(dirEntry) // its empty slot names no snapshot to drop
		d.entries[w] = e
	} else if e.it.Key != key {
		// Every way of both buckets is taken: the displaced key leaves the
		// directory entirely — its segment must be cleared, or clients
		// holding its cached offset would keep reading a snapshot that no
		// directory state invalidates.
		d.Displacements++
		d.leave(b, e)
	}
	d.drop(e)

	slot := protocol.DirSlot{
		Digest:  digest,
		Version: d.commitVersion(w),
	}
	switch {
	case it.OnSSD() || it.Dropped():
		slot.Kind = protocol.DirOnSSD
	case it.ValueSize <= protocol.DirInlineMax:
		slot.Kind = protocol.DirInline
		slot.ValueSize, slot.Flags, slot.CAS = it.ValueSize, it.Flags, it.CAS
		slot.Value = it.Value
	default:
		seg := protocol.NewDirSegment(&d.SegmentRecs)
		seg.Digest, seg.Version = slot.Digest, slot.Version
		seg.ValueSize, seg.Flags, seg.CAS, seg.Value = it.ValueSize, it.Flags, it.CAS, it.Value
		slot.Kind = protocol.DirAtOffset
		slot.Len = seg.WireSize()
		// A fresh, never-reused value offset.
		slot.Off = d.nextOff
		d.nextOff += int64(slot.Len)
		d.valMR.SetSegment(slot.Off, seg, slot.Len)
		seg.Release()
	}
	if e.it != it {
		it.Hold()
		if e.it != nil {
			e.it.Unhold()
		}
		e.it = it
	}
	e.slot = slot
	d.writeBucket(b)
}

// Unpublish removes key from the directory: snapshot cleared, way emptied
// (and, for a spilled key, the home's count dropped), its version advanced
// so in-flight probes that saw the old slot fail their validation.
func (d *Directory) Unpublish(key string) {
	b, w := d.find(key, protocol.KeyDigest(key))
	if w < 0 {
		return
	}
	e := d.entries[w]
	d.drop(e)
	d.leave(b, e)
	e.it.Unhold()
	d.entries[w] = nil
	d.commitVersion(w)
	d.writeBucket(b)
}

// EvictionUpdate applies a slab-manager eviction transition. Eviction can
// act on a superseded incarnation of a key (an old item still in a flush
// window after a replace), so the event is identity-checked against the
// published entry and ignored unless it concerns the current one.
func (d *Directory) EvictionUpdate(it *hybridslab.Item, ev hybridslab.NotifyEvent) {
	if _, w := d.find(it.Key, protocol.KeyDigest(it.Key)); w < 0 || d.entries[w].it != it {
		return
	}
	switch ev {
	case hybridslab.EvictStaged:
		d.PublishBegin(it.Key)
	case hybridslab.EvictDropped:
		d.Unpublish(it.Key)
	case hybridslab.EvictLanded, hybridslab.EvictRestored:
		d.Publish(it)
	}
}

// census passes each published entry's item to visit and tallies the
// published records: each bucket is held once, by its MR segment, and so is
// each out-of-line value a bucket names; at a drained quiesce no READ holds
// one. The shared empty bucket counts nothing. A bucket segment that holds
// no bucket, or a way that names no value segment, is wrong.
func (d *Directory) census(visit func(*hybridslab.Item) bool) []pool.Tally {
	for _, e := range d.entries {
		if e != nil {
			visit(e.it)
		}
	}
	var buckets pool.Walk[protocol.DirBucket, *protocol.DirBucket]
	var segs pool.Walk[protocol.DirSegment, *protocol.DirSegment]
	var wrong []string
	for b := 0; b < d.buckets; b++ {
		v, _ := d.dirMR.Segment(int64(b) * protocol.DirBucketBytes)
		bucket, ok := v.(*protocol.DirBucket)
		if !ok {
			wrong = append(wrong, fmt.Sprintf("bucket %d holds %T", b, v))
			continue
		}
		buckets.Visit(bucket)
		for _, slot := range bucket.Ways {
			if slot.Kind != protocol.DirAtOffset {
				continue
			}
			v, _ := d.valMR.Segment(slot.Off)
			if seg, ok := v.(*protocol.DirSegment); ok {
				segs.Visit(seg)
			} else {
				wrong = append(wrong, fmt.Sprintf("bucket %d names a segment at %d that holds %T", b, slot.Off, v))
			}
		}
	}
	t := pool.Count("buckets", &d.BucketRecs, &buckets, 0)
	t.Wrong = append(t.Wrong, wrong...)
	return []pool.Tally{t, pool.Count("segments", &d.SegmentRecs, &segs, 0)}
}

// Quiesce empties the published state (crash, or the prelude to a cold
// restart): every bucket reads as the empty bucket and every snapshot as
// emptiness, so clients READing the dead server's still-registered MRs fall
// back to RPC rather than observe values that may not survive recovery.
// Versions are retained, so republished slots never reuse a version an old
// probe might hold.
func (d *Directory) Quiesce() {
	// Segment-addressed even when empty: a READ of an unpublished offset
	// returns emptiness, not a whole-region payload.
	d.valMR.ClearSegments()
	for _, e := range d.entries {
		if e != nil {
			e.it.Unhold()
		}
	}
	clear(d.entries)
	clear(d.spills)
	d.dirMR.FillSegments(emptyBucket) // every bucket is empty: what writeBucket would publish
}
