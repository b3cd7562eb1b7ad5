package store

import (
	"hybridkv/internal/hybridslab"
	"hybridkv/internal/protocol"
	"hybridkv/internal/verbs"
)

// This file implements the server-bypass read-side index: the store's live
// items published into registered MRs so clients resolve GET hits with
// one-sided RDMA READs and zero server CPU (RFP's remote-fetching paradigm,
// with HiStore's published-and-versioned index making it safe).
//
// Layout. The directory MR is a bucket array; bucket(key) = KeyDigest(key)
// mod Buckets, and a bucket is protocol.DirWays fixed-size slots
// (protocol.DirSlotBytes each) published together as one protocol.DirBucket.
// One READ of a key's bucket answers the lookup from the way whose digest is
// the key's (protocol.DirSlotKind): a RAM-resident value of at most
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
// Placement. A published key keeps its way across republishes; a new key
// takes the bucket's first empty way, and when every way holds another key
// it displaces the last way's occupant (displaceWay).
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

// displaceWay is the way a key takes in a bucket whose every way holds
// another key: the last one, so the first way's occupant stays until it
// leaves and only one of a full bucket's keys turns over (DESIGN.md §11).
const displaceWay = protocol.DirWays - 1

// emptyBucket is what a bucket with no owned way holds (boxed once, shared).
var emptyBucket any = protocol.DirBucket{}

// dirEntry is one published key: the item it mirrors and the slot last
// committed for it (slot.Off/Len name its value-MR segment when the value
// is out of line).
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
	nextOff int64

	// Stats
	Displacements int64
}

// NewDirectory registers the directory and value MRs on pd (setup-time, no
// simulated cost — directory bring-up is not on the measured path).
// buckets ≤ 0 selects the default geometry.
func NewDirectory(pd *verbs.PD, buckets int) *Directory {
	if buckets <= 0 {
		buckets = 1 << 15
	}
	d := &Directory{
		dirMR:    pd.RegisterMRSetup(buckets * protocol.DirBucketBytes),
		valMR:    pd.RegisterMRSetup(valArenaBytes),
		buckets:  buckets,
		versions: make([]uint64, buckets*protocol.DirWays),
		entries:  make([]*dirEntry, buckets*protocol.DirWays),
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

func (d *Directory) bucket(key string) int {
	return int(protocol.KeyDigest(key) % uint64(d.buckets))
}

// ways returns the index range of bucket b's ways in entries and versions.
func ways(b int) (lo, hi int) { return b * protocol.DirWays, (b + 1) * protocol.DirWays }

// find returns key's bucket and the index of the way key owns there, or -1
// when it owns none (fresh insert, or displaced by colliding keys).
func (d *Directory) find(key string) (b, w int) {
	b = d.bucket(key)
	lo, hi := ways(b)
	for w := lo; w < hi; w++ {
		if e := d.entries[w]; e != nil && e.it.Key == key {
			return b, w
		}
	}
	return b, -1
}

// place returns the way a key that owns none in bucket b takes: the first
// empty one, else displaceWay.
func (d *Directory) place(b int) int {
	lo, hi := ways(b)
	for w := lo; w < hi; w++ {
		if d.entries[w] == nil {
			return w
		}
	}
	return lo + displaceWay
}

// writeBucket publishes bucket b's ways, always at the full bucket length:
// boxed once, or the shared empty bucket when no way is owned.
func (d *Directory) writeBucket(b int) {
	var bucket protocol.DirBucket
	owned := false
	lo, hi := ways(b)
	for w := lo; w < hi; w++ {
		if e := d.entries[w]; e != nil {
			bucket[w-lo], owned = e.slot, true
		}
	}
	v := emptyBucket
	if owned {
		v = bucket
	}
	d.dirMR.SetSegment(int64(b)*protocol.DirBucketBytes, v, protocol.DirBucketBytes)
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
	b, w := d.find(key)
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
	b, w := d.find(key)
	if w < 0 {
		w = d.place(b)
	}
	e := d.entries[w]
	if e == nil {
		e = new(dirEntry) // its empty slot names no snapshot to drop
		d.entries[w] = e
	} else if e.it.Key != key {
		// Every way is taken: the displaced key leaves the directory
		// entirely — its segment must be cleared, or clients holding its
		// cached offset would keep reading a snapshot that no directory
		// state invalidates.
		d.Displacements++
	}
	d.drop(e)

	slot := protocol.DirSlot{
		Digest:  protocol.KeyDigest(key),
		Version: d.commitVersion(w),
	}
	switch {
	case it.OnSSD() || it.Dropped():
		slot.Kind = protocol.DirOnSSD
	case it.ValueSize <= protocol.DirInlineMax:
		slot.Kind = protocol.DirInline
		slot.ValueSize, slot.Flags, slot.CAS = it.ValueSize, it.Flags, it.CAS
		slot.ExpireAt = int64(it.ExpireAt)
		slot.Value = it.Value
	default:
		seg := protocol.DirSegment{
			Digest:    slot.Digest,
			Version:   slot.Version,
			ValueSize: it.ValueSize,
			Flags:     it.Flags,
			CAS:       it.CAS,
			ExpireAt:  int64(it.ExpireAt),
			Value:     it.Value,
		}
		slot.Kind = protocol.DirAtOffset
		slot.Len = seg.WireSize()
		// A fresh, never-reused value offset.
		slot.Off = d.nextOff
		d.nextOff += int64(slot.Len)
		d.valMR.SetSegment(slot.Off, seg, slot.Len)
	}
	e.it, e.slot = it, slot
	d.writeBucket(b)
}

// Unpublish removes key from the directory: snapshot cleared, way emptied,
// its version advanced so in-flight probes that saw the old slot fail their
// validation.
func (d *Directory) Unpublish(key string) {
	b, w := d.find(key)
	if w < 0 {
		return
	}
	d.drop(d.entries[w])
	d.entries[w] = nil
	d.commitVersion(w)
	d.writeBucket(b)
}

// EvictionUpdate applies a slab-manager eviction transition. Eviction can
// act on a superseded incarnation of a key (an old item still in a flush
// window after a replace), so the event is identity-checked against the
// published entry and ignored unless it concerns the current one.
func (d *Directory) EvictionUpdate(it *hybridslab.Item, ev hybridslab.NotifyEvent) {
	if _, w := d.find(it.Key); w < 0 || d.entries[w].it != it {
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
	clear(d.entries)
	for b := 0; b < d.buckets; b++ {
		d.writeBucket(b)
	}
}
