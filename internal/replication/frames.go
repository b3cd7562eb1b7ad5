package replication

import (
	"hybridkv/internal/pool"
	"hybridkv/internal/protocol"
)

// Frame kinds of the server-to-server replication protocol. Frames travel
// as verbs SENDs over the replicators' dedicated QP mesh, so they pay real
// fabric latency and are subject to fault injection like any other traffic.
type frameKind int

const (
	// frameWrite carries a write: a coordinator forward (acked) or an
	// anti-entropy / read-repair / pull-reply push (Repair, unacked).
	frameWrite frameKind = iota
	// frameAck answers a coordinator forward: applied, or stale-rejected
	// with the replica's newer epoch.
	frameAck
	// framePull asks a peer to push its confirmed copy of a key.
	framePull
	// framePullMiss answers a pull when the peer has no confirmed copy.
	framePullMiss
	// frameProbe is the read-repair rendezvous: "I just served this key from
	// this record" (epoch, content sum) — a lagging peer asks for
	// a push, a fresher one pushes.
	frameProbe
	// frameDigest carries a scrubber's bucketed epoch digest.
	frameDigest
	// frameDiff answers a digest with the receiver's entries for every
	// bucket that differed.
	frameDiff
	// frameSegPull asks an old-epoch owner for a manifest of one hash-space
	// segment: every key the sender owns under the new ring that the
	// receiver holds confirmed. Sent (and re-sent) by the migration engine.
	frameSegPull
	// frameSegManifest answers a segment pull with (key, epoch) entries;
	// the requester compares against local state and issues framePulls for
	// whatever it lacks. An empty manifest still counts the source as
	// answered.
	frameSegManifest
)

// KeyEpoch is one digest-diff entry. Sum carries the sender's per-key
// value-content checksum so the receiver can tell same-epoch/different-
// bytes divergence (silent corruption) from convergence.
type KeyEpoch struct {
	Key   string
	Epoch uint64
	Sum   uint64
}

// version is one replicated write of a key: what a round forwards, what a
// write frame carries, and what install lands. Every Forward and frame holds
// one (48 bytes).
type version struct {
	epoch uint64
	flags uint32
	value any
	size  int
	// sum is the end-to-end content checksum, protocol.ValueSum(value),
	// computed once by whoever built the version: a frame's receiver re-derives
	// it and silently rejects a value corrupted in flight, and the record of
	// every replica that lands the version takes it.
	sum uint64
}

// frame is the single wire message of the replication protocol; Kind
// selects which fields are meaningful. Its sender takes it off its own free
// list (newFrame) holding the builder's hold; each post adds one, which the
// transfer gives back after the last delivery, and each delivery one for its
// receiver, given back once the frame is handled or dropped. The last Release
// puts it back, zeroed (DESIGN §16).
type frame struct {
	Kind frameKind
	From int    // sender's server id
	ID   uint64 // forward round id (frameWrite/frameAck)

	Key string
	// version is the write a frameWrite carries. A frameProbe uses its
	// epoch and sum for the record it served; the other kinds its epoch
	// alone: the replica's own in a stale-rejecting frameAck, the membership
	// epoch in frameSegPull and frameSegManifest.
	version
	Repair bool // frameWrite: unacked repair push

	Applied bool // frameAck: false = stale-rejected, epoch holds the newer one

	Buckets []uint64   // frameDigest: digest; frameDiff: differing bucket ids
	Entries []KeyEpoch // frameDiff, frameSegManifest

	Seg int // frameSegPull/frameSegManifest: hash-space segment id

	// owner is the sending replicator's free list, where the last Release
	// puts the frame back; nil for a frame nobody recycles.
	pool.Holds
	owner *frameList
}

// frameList is a replicator's free list of frames, beside the spare Buckets
// and Entries slices of the frames that went back on it: Put zeroes a frame,
// and the slices it carried would go with it. A frame gives its slices up on
// its last Release, so a spare is never shared with a frame someone holds;
// each stack is bounded by the frames in flight, as the list is.
type frameList struct {
	pool.List[frame, *frame]
	buckets [][]uint64
	entries [][]KeyEpoch
}

// put stashes f's slices, emptied — its entries cleared first, so no key
// string stays reachable — and puts f back.
func (l *frameList) put(f *frame) {
	if f.Buckets != nil {
		l.buckets = append(l.buckets, f.Buckets[:0])
	}
	if f.Entries != nil {
		clear(f.Entries)
		l.entries = append(l.entries, f.Entries[:0])
	}
	l.Put(f)
}

// spareBuckets and spareEntries hand out an empty slice off their stack to
// append to, or nil when it is empty.
func (l *frameList) spareBuckets() (s []uint64) {
	if n := len(l.buckets); n > 0 {
		s, l.buckets[n-1], l.buckets = l.buckets[n-1], nil, l.buckets[:n-1]
	}
	return s
}

func (l *frameList) spareEntries() (s []KeyEpoch) {
	if n := len(l.entries); n > 0 {
		s, l.entries[n-1], l.entries = l.entries[n-1], nil, l.entries[:n-1]
	}
	return s
}

// newFrame hands out a frame of kind about key off r's free list, holding its
// builder's hold: the builder fills it in, sends it, and then Releases it.
func (r *Replicator) newFrame(kind frameKind, key string) *frame {
	f := r.frames.Get()
	f.Kind, f.Key, f.owner = kind, key, &r.frames
	return f
}

// Census tallies the replicator's frames and rounds at a drained quiesce
// (DESIGN §16): nothing is in flight and no round is open, so every one of
// them is free.
func (r *Replicator) Census() []pool.Tally {
	return []pool.Tally{
		pool.Count("frames", &r.frames.List, nil, 0),
		pool.Count("rounds", &r.rounds, nil, 0),
	}
}

// Retain adds a hold on f: one more post, or one more delivery's reader.
// Retaining a free frame panics.
func (f *frame) Retain() { pool.Hold(f) }

// Release drops one hold on f; the last one puts it back on its owner's list,
// zeroed. Releasing a frame nobody holds panics.
func (f *frame) Release() {
	if pool.Drop(f) {
		f.owner.put(f)
	}
}

// CorruptCopy implements simnet.Corruptible: the fault injector's in-flight
// corruption delivers this instead of the original. Only a write's value
// payload garbles — header fields are covered by link-layer CRC in any real
// fabric, so a corrupt header is a dropped frame, already modeled by drop
// injection — and every other kind is delivered as itself, held by its reader
// like any delivery. The stamped sum is deliberately left as the sender
// computed it, which is exactly how the receiver detects the mismatch. A
// write's copy counts no holds, has no owner and carries no slices: its
// reader's Retain and Release pass it by, the original goes back on its list
// when the transfer lets go of it, and whatever slices the original had go on
// to the next frame off that list without the copy reading them.
func (f *frame) CorruptCopy() any {
	if f.Kind != frameWrite {
		return f
	}
	g := *f
	g.Holds, g.owner, g.Buckets, g.Entries = pool.Holds{}, nil, nil, nil
	if g.value != nil {
		g.value = protocol.Garbled{Inner: g.value}
	}
	return &g
}

// frameHeaderBytes is the modeled fixed overhead of one replication frame
// (kind, ids, epoch, lengths) — deliberately roomy, like a real RPC header.
const frameHeaderBytes = 64

// wireSize is the modeled fabric size of the frame.
func (f *frame) wireSize() int {
	n := frameHeaderBytes + len(f.Key) + f.size + 8*len(f.Buckets)
	for _, e := range f.Entries {
		n += len(e.Key) + 17 // key + epoch + reserved byte + content sum
	}
	return n
}
