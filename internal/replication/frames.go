package replication

import "hybridkv/internal/protocol"

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
	// this record" (epoch, tombstone, content sum) — a lagging peer asks for
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
	Del   bool
	Sum   uint64
}

// version is one replicated write of a key: what a round forwards, what a
// write frame carries, and what install lands.
type version struct {
	epoch  uint64
	del    bool // tombstone: this version deletes the key
	value  any
	size   int
	flags  uint32
	expire uint32
	// sum is the end-to-end content checksum, protocol.ValueSum(value),
	// computed once by whoever built the version: a frame's receiver re-derives
	// it and silently rejects a value corrupted in flight, and the record of
	// every replica that lands the version takes it. Zero for a delete.
	sum uint64
}

// frame is the single wire message of the replication protocol; Kind
// selects which fields are meaningful.
type frame struct {
	Kind frameKind
	From int    // sender's server id
	ID   uint64 // forward round id (frameWrite/frameAck)

	Key string
	// version is the write a frameWrite carries. A frameProbe uses its
	// epoch, del and sum for the record it served; the other kinds its epoch
	// alone: the replica's own in a stale-rejecting frameAck, the membership
	// epoch in frameSegPull and frameSegManifest.
	version
	Repair bool // frameWrite: unacked repair push

	Applied bool // frameAck: false = stale-rejected, epoch holds the newer one

	Buckets []uint64   // frameDigest: digest; frameDiff: differing bucket ids
	Entries []KeyEpoch // frameDiff, frameSegManifest

	Seg int // frameSegPull/frameSegManifest: hash-space segment id
}

// CorruptCopy implements simnet.Corruptible: the fault injector's in-flight
// corruption delivers this instead of the original. Only a write's value
// payload garbles — header fields are covered by link-layer CRC in any real
// fabric, so a corrupt header is a dropped frame, already modeled by drop
// injection. The stamped sum is deliberately left as the sender computed it,
// which is exactly how the receiver detects the mismatch.
func (f *frame) CorruptCopy() any {
	g := *f
	if g.Kind == frameWrite && !g.del && g.value != nil {
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
		n += len(e.Key) + 17 // key + epoch + del bit + content sum
	}
	return n
}
