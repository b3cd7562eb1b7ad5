package replication

import (
	"fmt"

	"hybridkv/internal/pool"
	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
)

// Test-only hooks for the same-epoch content-divergence repair path. The
// scrub's content fold exists to catch *silent* corruption — an applied
// value whose bytes changed without an epoch advance — which no public
// operation can produce (the write path checksums frames and the store
// path verifies media). Tests reach in here to create exactly that state.

// SilentlyCorruptForTest models silent in-RAM corruption of an applied
// value: the key's recorded content sum is overwritten while its epoch and
// suspect state stand, and the scrubber is kicked as if a
// periodic round were due. Returns false if the key has no confirmed live
// record here (nothing to corrupt).
func (r *Replicator) SilentlyCorruptForTest(key string, sum uint64) bool {
	k := protocol.KeyOf(key)
	ks := r.keys.get(k)
	if ks == nil || ks.epoch == 0 || ks.suspect {
		return false
	}
	r.setState(k, ks, ks.epoch, ks.suspect, sum)
	r.kick()
	return true
}

// AppliedStateForTest exposes a key's confirmed (epoch, content-sum)
// record for convergence assertions.
func (r *Replicator) AppliedStateForTest(key string) (epoch, sum uint64, ok bool) {
	k := protocol.KeyOf(key)
	ks := r.keys.get(k)
	if ks == nil || ks.epoch == 0 {
		return 0, 0, false
	}
	return ks.epoch, ks.sum, true
}

// OpenForwardsForTest reports how many write rounds are still registered:
// zero on a quiescent replicator.
func (r *Replicator) OpenForwardsForTest() int { return len(r.fwds) }

// StaleDigestsForTest compares every digest this replicator maintains with a
// from-scratch fold over its key table, and names the peers whose maintained
// digest has drifted. maintained reports how many peers had one to compare.
func (r *Replicator) StaleDigestsForTest() (stale []int, maintained int) {
	for _, pid := range r.peerIDs {
		kept := r.peers[pid].digest
		if kept == nil || r.placementNow() != r.digestsAt {
			continue // recomputed on next use: nothing maintained to drift
		}
		maintained++
		for i, v := range r.computeDigest(pid) {
			if kept[i] != v {
				stale = append(stale, pid)
				break
			}
		}
	}
	return stale, maintained
}

// FinishForTest is Finish, returning the epoch the round ended on: the one
// begin minted, or the last one a re-coordination moved it to. It holds the
// round across Finish, as any reader of a round after Finish must, and puts it
// back once it has read it.
func (r *Replicator) FinishForTest(p *sim.Proc, resp *protocol.Response, fwd *Forward) (epoch uint64) {
	if fwd == nil {
		r.Finish(p, resp, nil)
		return 0
	}
	pool.Hold(fwd)
	r.Finish(p, resp, fwd)
	epoch = fwd.epoch
	r.closeRound(fwd)
	return epoch
}

// RecordForTest exposes a key's whole epoch record, suspect or not; ok is false
// when the key has none.
func (r *Replicator) RecordForTest(key string) (epoch, sum uint64, suspect, ok bool) {
	k := protocol.KeyOf(key)
	ks := r.keys.get(k)
	if ks == nil {
		return 0, 0, false, false
	}
	return ks.epoch, ks.sum, ks.suspect, true
}

// OpenPullsForTest and OpenWantsForTest count what a quiescent replicator must
// not be holding: keys with a pull open, and migration state — a segment still
// installed, or a key still wanted in one.
func (r *Replicator) OpenPullsForTest() (n int) {
	for b := range r.keys {
		for _, ks := range r.keys[b].All() {
			if ks.pull != nil {
				n++
			}
		}
	}
	return n
}

func (r *Replicator) OpenWantsForTest() (n int) {
	for _, st := range r.migPulls {
		if st != nil {
			n += 1 + st.wants.Len()
		}
	}
	return n
}

// DeliverStaleForwardForTest hands r a forward of key from peer from, one
// coordination round below r's record of the key: what a coordinator's write
// delayed in the fabric past a newer one looks like when it finally arrives.
// Returns false when r holds no record to be below.
func (r *Replicator) DeliverStaleForwardForTest(p *sim.Proc, from int, key string) bool {
	k := protocol.KeyOf(key)
	ks := r.keys.get(k)
	if ks == nil || ks.epoch < 0x100 {
		return false
	}
	v := version{epoch: ks.epoch - 0x100, value: "stale", size: 64, sum: protocol.ValueSum("stale")}
	r.handle(p, &frame{Kind: frameWrite, From: from, ID: ^uint64(0), Key: k, version: v})
	return true
}

// DeliverWriteForTest hands r's engine a write frame of key from peer from, as
// polled off the receive queue at this instant and in this incarnation: a
// forward of a round nobody has open, or with repair a repair push.
func (r *Replicator) DeliverWriteForTest(from int, key string, epoch uint64, value any, size int, repair bool) {
	r.DeliverStampedWriteForTest(from, key, epoch, value, size, protocol.ValueSum(value), repair)
}

// DeliverStampedWriteForTest is DeliverWriteForTest with the sum the sender
// stamped on the frame given, matching the value or not.
func (r *Replicator) DeliverStampedWriteForTest(from int, key string, epoch uint64, value any, size int, sum uint64, repair bool) {
	k := protocol.KeyOf(key)
	v := version{epoch: epoch, value: value, size: size, sum: sum}
	r.demux(&frame{Kind: frameWrite, From: from, ID: ^uint64(0), Key: k, Repair: repair, version: v})
}

// ResendRoundsForTest hands to's engine a fresh copy of the write of every
// round r has open on which to still owes its ack — what await's resend is
// when it arrives — and returns how many that was.
func (r *Replicator) ResendRoundsForTest(to *Replicator) (n int) {
	for _, id := range sortedKeys(r.fwds, nil) {
		fwd := r.fwds[id]
		if i := fwd.peers.index(to.cfg.ID); i >= 0 && fwd.waiting&(1<<i) != 0 {
			to.demux(&frame{Kind: frameWrite, From: r.cfg.ID, ID: fwd.id, Key: fwd.key, version: fwd.version})
			n++
		}
	}
	return n
}

// ForwardHandoffForTest returns a step that hands r's engine one forward whose
// value was garbled in flight and fails its checksum: the applier that takes
// it rejects it, which allocates nothing, so the step costs what the hand-off
// costs.
func (r *Replicator) ForwardHandoffForTest() (step func()) {
	garbled := version{epoch: 0x100, value: protocol.Garbled{Inner: "v"}, size: 1, sum: protocol.ValueSum("v")}
	f := &frame{Kind: frameWrite, ID: ^uint64(0), Key: protocol.KeyOf("handoff"), version: garbled}
	return func() { r.demux(f) }
}

// GarbleForwardForTest builds a forward of key off r's list and delivers what
// in-flight corruption makes of it to's engine, as the fabric would: the
// frame's CorruptCopy, held by its receiver (Retain) and demuxed. The original
// then loses its post's hold, as its transfer does after the last delivery.
// It returns the holds the copy counted when it was made.
func (r *Replicator) GarbleForwardForTest(to *Replicator, key string) (copyHolds int) {
	k := protocol.KeyOf(key)
	f := r.newFrame(frameWrite, k)
	f.From, f.ID = r.cfg.ID, ^uint64(0)
	f.version = version{epoch: 0x100, value: "v", size: 1, sum: protocol.ValueSum("v")}
	g := f.CorruptCopy().(*frame)
	copyHolds = pool.Holders(g)
	g.Retain()
	to.demux(g)
	f.Release()
	return copyHolds
}

// ApplyPoolForTest is how many forwards hold every applier.
const ApplyPoolForTest = applyPool

// QueuedForTest is how many frames the engine has handed over that no lane has
// taken yet: forwards waiting for an applier, and background frames.
func (r *Replicator) QueuedForTest() (forwards, background int) {
	return r.applyQ.Len(), r.backQ.Len()
}

// ScrubRoundForTest builds what one scrub round sends — a digest frame per
// peer — without sending it, and returns the words it would carry. Each frame
// goes back on r's list, as its last delivery would put it.
func (r *Replicator) ScrubRoundForTest() (words int) {
	for _, pid := range r.peerIDs {
		f := r.digestFrame(pid)
		words += len(f.Buckets)
		f.Release()
	}
	return words
}

// ScrubExchangeForTest returns a step that starts one scrub exchange from r to
// peer to, for the caller to run to quiescence: r's digest for to with the
// first fold of one bucket flipped, handed to to's engine as if just polled
// off its receive queue. On a converged pair, to answers with its entries for
// that bucket and r reconciles them, finding nothing to push or pull.
func (r *Replicator) ScrubExchangeForTest(to *Replicator, bucket int) (step func()) {
	return func() {
		f := r.digestFrame(to.cfg.ID)
		f.From = r.cfg.ID
		f.Buckets[2*bucket] ^= 1
		f.Retain()
		to.demux(f)
		f.Release()
	}
}

// SpareAliasForTest audits r's stacks of spare slices: it names the first
// backing array found on them twice — two frames would fill one array — or
// reports "" when every spare is its own; spares is how many it looked at.
func (r *Replicator) SpareAliasForTest() (spares int, alias string) {
	spares = len(r.frames.buckets) + len(r.frames.entries)
	seen := map[any]bool{}
	for i, s := range r.frames.buckets {
		if cap(s) > 0 && !seen[&s[:cap(s)][0]] {
			seen[&s[:cap(s)][0]] = true
			continue
		}
		return spares, fmt.Sprintf("spare buckets slice %d of %d (cap %d) is empty or shared", i, len(r.frames.buckets), cap(s))
	}
	for i, s := range r.frames.entries {
		if cap(s) > 0 && !seen[&s[:cap(s)][0]] {
			seen[&s[:cap(s)][0]] = true
			continue
		}
		return spares, fmt.Sprintf("spare entries slice %d of %d (cap %d) is empty or shared", i, len(r.frames.entries), cap(s))
	}
	return spares, ""
}

// RefoldForTest moves key's record one epoch up through setState, which
// refolds the key's entry in the maintained digest of every peer sharing it.
func (r *Replicator) RefoldForTest(key string) {
	k := protocol.KeyOf(key)
	ks := r.state(k)
	r.setState(k, ks, ks.epoch+0x100, ks.suspect, ks.sum)
}
