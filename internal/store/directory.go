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
// Layout. The directory MR is a bucket array of fixed-size slots
// (protocol.DirSlotBytes each); bucket(key) = KeyDigest(key) mod Buckets.
// One READ of a key's slot answers the lookup (protocol.DirSlotKind): a
// RAM-resident value of at most protocol.DirInlineMax bytes is carried in
// the slot itself, under the slot's version; a larger one is published as
// an immutable snapshot segment (protocol.DirSegment) at a fresh offset in
// the value MR, which the slot names; an SSD-resident key publishes
// metadata only; anything else reads as the empty slot. Value offsets grow
// monotonically and are never reused, so a segment that still exists at an
// offset IS the value that was published there — a client holding a cached
// offset either reads that exact snapshot or reads emptiness and falls
// back to the slot. Slots carry a seqlock-style version: odd while a
// mutation window is open, bumped to a fresh even value at every commit, so
// probing clients detect in-progress or changed state without locks. Every
// slot, empty ones included, is published at its full length: a slot READ
// moves protocol.DirSlotBytes whatever it finds.
//
// Coherence. The store calls PublishBegin/Publish/Unpublish around every
// command-path mutation; the slab manager's eviction notifications arrive
// through EvictionUpdate (identity-checked, since eviction may be acting on
// a superseded incarnation of a key). Crash quiesces the directory — all
// slots emptied, all segments cleared, versions retained — so clients
// READing a dead server's still-registered MRs observe emptiness, never
// stale values.

// valArenaBytes sizes the value MR's virtual offset space. Offsets are
// monotonically allocated and never reused, so this only bounds total bytes
// ever published, not live bytes.
const valArenaBytes = 1 << 40

// emptySlot is what an unowned bucket holds (boxed once, shared).
var emptySlot any = protocol.DirSlot{}

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
	// versions is the per-bucket seqlock; it survives Quiesce so slots
	// republished after a restart always carry advanced versions.
	versions []uint64
	entries  []*dirEntry // by bucket; the bucket's owner is its entry's item's key
	nextOff  int64

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
		dirMR:    pd.RegisterMRSetup(buckets * protocol.DirSlotBytes),
		valMR:    pd.RegisterMRSetup(valArenaBytes),
		buckets:  buckets,
		versions: make([]uint64, buckets),
		entries:  make([]*dirEntry, buckets),
	}
	d.Quiesce() // a new directory is a quiesced one: every slot published, empty
	return d
}

// Info describes the directory for the OpDirQuery bootstrap response.
func (d *Directory) Info() protocol.DirectoryInfo {
	return protocol.DirectoryInfo{
		DirMR: d.dirMR.LKey(), ValMR: d.valMR.LKey(),
		Buckets: d.buckets, InlineMax: protocol.DirInlineMax,
	}
}

func (d *Directory) bucket(key string) int {
	return int(protocol.KeyDigest(key) % uint64(d.buckets))
}

func (d *Directory) slotOff(b int) int64 { return int64(b) * protocol.DirSlotBytes }

// writeSlot publishes bucket b's contents, always at the full slot length.
func (d *Directory) writeSlot(b int, slot any) {
	d.dirMR.SetSegment(d.slotOff(b), slot, protocol.DirSlotBytes)
}

// commitVersion closes bucket b's mutation window (or skips one that was
// never opened) with a fresh even version.
func (d *Directory) commitVersion(b int) uint64 {
	v := d.versions[b]
	if v%2 == 1 {
		v++
	} else {
		v += 2
	}
	d.versions[b] = v
	return v
}

// drop withdraws e's out-of-line snapshot, if it has one.
func (d *Directory) drop(e *dirEntry) {
	if e.slot.Kind == protocol.DirAtOffset {
		d.valMR.ClearSegment(e.slot.Off)
	}
}

// PublishBegin opens key's mutation window: the slot version goes odd so
// probing clients re-probe or fall back to RPC until the commit. A no-op
// when key does not own its bucket (fresh insert, or displaced by a
// colliding key).
func (d *Directory) PublishBegin(key string) {
	b := d.bucket(key)
	e := d.entries[b]
	if e == nil || e.it.Key != key {
		return
	}
	if d.versions[b]%2 == 0 {
		d.versions[b]++
	}
	e.slot.Version = d.versions[b]
	d.writeSlot(b, e.slot)
}

// Publish commits key's current item under a fresh even version: the
// previous incarnation (and any colliding bucket occupant) leaves the
// directory, and the slot lands carrying the value itself when it fits
// protocol.DirInlineMax, naming a fresh immutable snapshot in the value MR
// when it does not, or flagged SSD-resident — metadata only, clients fall
// back to RPC — when the value is not in RAM.
func (d *Directory) Publish(it *hybridslab.Item) {
	key := it.Key
	b := d.bucket(key)
	e := d.entries[b]
	if e == nil {
		e = new(dirEntry) // its empty slot names no snapshot to drop
		d.entries[b] = e
	} else if e.it.Key != key {
		// Bucket collision: the displaced key leaves the directory
		// entirely — its segment must be cleared, or clients holding its
		// cached offset would keep reading a snapshot that no directory
		// state invalidates.
		d.Displacements++
	}
	d.drop(e)

	slot := protocol.DirSlot{
		Digest:  protocol.KeyDigest(key),
		Version: d.commitVersion(b),
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
	d.writeSlot(b, slot)
}

// Unpublish removes key from the directory: snapshot cleared, slot emptied,
// version advanced so in-flight probes that saw the old slot fail their
// validation.
func (d *Directory) Unpublish(key string) {
	b := d.bucket(key)
	e := d.entries[b]
	if e == nil || e.it.Key != key {
		return
	}
	d.drop(e)
	d.entries[b] = nil
	d.commitVersion(b)
	d.writeSlot(b, emptySlot)
}

// EvictionUpdate applies a slab-manager eviction transition. Eviction can
// act on a superseded incarnation of a key (an old item still in a flush
// window after a replace), so the event is identity-checked against the
// published entry and ignored unless it concerns the current one.
func (d *Directory) EvictionUpdate(it *hybridslab.Item, ev hybridslab.NotifyEvent) {
	if e := d.entries[d.bucket(it.Key)]; e == nil || e.it != it {
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
// restart): every slot reads as the empty slot and every snapshot as
// emptiness, so clients READing the dead server's still-registered MRs fall
// back to RPC rather than observe values that may not survive recovery.
// Versions are retained, so republished slots never reuse a version an old
// probe might hold.
func (d *Directory) Quiesce() {
	// Segment-addressed even when empty: a READ of an unpublished offset
	// returns emptiness, not a whole-region payload.
	d.valMR.ClearSegments()
	for b := range d.entries {
		d.entries[b] = nil
		d.writeSlot(b, emptySlot)
	}
}
