package replication

import "hybridkv/internal/sim"

// Anti-entropy scrubber: write forwards and read repair fix divergence on
// keys that clients keep touching; the scrubber fixes everything else. Each
// scrub round the lower-id member of every replica pair sends the peer a
// bucketed digest of the epochs it holds for the keys they share; the peer
// answers with its own entries for every bucket that differs, and the
// initiator reconciles — pushing keys it holds fresher, pulling keys the
// peer holds fresher. The digest is Merkle-style in spirit (compare
// summaries, recurse only into differences) flattened to one level: with
// simulation-scale key counts a single layer of buckets is already a
// large traffic reduction over shipping full key lists every round.

// digestEntry folds one key's epoch record — and the content checksum of
// the value applied at that epoch — into a digest bucket. Folding the sum
// is what lets the scrub see *silent corruption*: two replicas at the same
// epoch whose bytes differ produce different digests and reconcile, where
// an epoch-only digest would call them converged forever.
func digestEntry(key string, epoch uint64, del bool, sum uint64) uint64 {
	e := epoch << 1
	if del {
		e |= 1
	}
	return Mix64(HashKey(key) ^ Mix64(e) ^ Mix64(sum*0x9e3779b97f4a7c15+1))
}

// digestEntry2 is the second, independent fold of the same record. An
// XOR-folded bucket has a blind spot: two entries whose digestEntry values
// collide cancel out, masking real divergence (most simply, two different
// records hashing to the same value XOR to zero, indistinguishable from
// holding neither). A second fold built from different primitives — an
// alternate key hash and alternate mixing constants — would only mask the
// same pair if it collided under both, which independent hashes don't do.
// Buckets carry both folds; a mismatch in either flags the bucket.
func digestEntry2(key string, epoch uint64, del bool, sum uint64) uint64 {
	e := epoch << 1
	if del {
		e |= 1
	}
	return mixAlt(hashKeyAlt(key) ^ mixAlt(e) ^ mixAlt(sum*0xff51afd7ed558ccd+1))
}

// hashKeyAlt is the alternate key hash of the second digest fold: FNV-1
// (not 1a: multiply-then-xor, a genuinely different diffusion order)
// finished with the alternate mixer.
func hashKeyAlt(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = h * 1099511628211
		h ^= uint64(s[i])
	}
	return mixAlt(h)
}

// mixAlt is the murmur3 finalizer — same shape as Mix64, independent
// constants, so a collision under one does not survive the other.
func mixAlt(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// sharedWith reports whether key is replicated on both this server and pid.
// During a migration the union replica set applies, so digests also cover
// keys mid-handoff between an old and a new owner.
func (r *Replicator) sharedWith(pid int, key string) bool {
	both := 0
	for _, id := range r.replicaSet(key) {
		if id == r.cfg.ID || id == pid {
			both++
		}
	}
	return both == 2
}

// confirmedEpoch is the epoch this server may claim for a key — in a digest,
// a manifest, the answer to a pull or a probe: its record's, or zero with no
// record (ks is nil) or only a suspect one. A recovered or corrupt-read value
// proves nothing until a peer confirms it; an unconfirmed epoch never travels.
func (ks *keyState) confirmedEpoch() uint64 {
	if ks == nil || ks.suspect {
		return 0
	}
	return ks.epoch
}

// confirmed reports whether there is anything to claim.
func (ks *keyState) confirmed() bool { return ks.confirmedEpoch() != 0 }

// folds returns the two digest folds of key's record: zero — XOR's identity —
// for a record that may not be claimed.
func (ks *keyState) folds(key string) (uint64, uint64) {
	if !ks.confirmed() {
		return 0, 0
	}
	return digestEntry(key, ks.epoch, ks.del, ks.sum), digestEntry2(key, ks.epoch, ks.del, ks.sum)
}

// computeDigest folds the bucketed epoch+content digest over the confirmed
// keys shared with pid, from scratch: bucket b occupies slots [2b] and
// [2b+1] — the two independent folds of its keys. XOR folding makes the
// digest independent of iteration order, preserving determinism over Go's
// randomized map iteration.
func (r *Replicator) computeDigest(pid int) []uint64 {
	buckets := make([]uint64, 2*scrubBuckets)
	for key, ks := range r.keys {
		if ks.confirmed() && r.sharedWith(pid, key) {
			b := HashKey(key) % scrubBuckets
			e1, e2 := ks.folds(key)
			buckets[2*b] ^= e1
			buckets[2*b+1] ^= e2
		}
	}
	return buckets
}

// placement identifies what sharedWith depends on: the membership epoch and
// whether its migration is still in flight (finalizing drops the old ring
// without bumping the epoch).
type placement struct {
	epoch     uint64
	migrating bool
}

func (r *Replicator) placementNow() placement {
	return placement{epoch: r.mem.Epoch(), migrating: r.mem.Migrating()}
}

// digest returns the maintained digest of the keys shared with pid; callers
// must not keep or modify it. Each peer link caches one, computed from
// scratch on first use and from then on kept current by setState and
// dropState — a scrub round costs a copy, not a pass over every key. A
// placement change invalidates them all, a new peer starts without one.
func (r *Replicator) digest(pid int) []uint64 {
	if now := r.placementNow(); now != r.digestsAt {
		r.dropDigests()
		r.digestsAt = now
	}
	pl := r.peers[pid]
	if pl.digest == nil {
		pl.digest = r.computeDigest(pid)
	}
	return pl.digest
}

// digestFrame is one scrub round's message to pid: a copy of the maintained
// digest, so what a round costs is the width of the digest, not the table.
func (r *Replicator) digestFrame(pid int) *frame {
	return &frame{Kind: frameDigest, Buckets: append([]uint64(nil), r.digest(pid)...)}
}

// dropDigests forgets every maintained digest.
func (r *Replicator) dropDigests() {
	for _, pl := range r.peers {
		pl.digest = nil
	}
}

// setState is the one place a key's replicated record changes: it moves the
// key's entry in the maintained digest of every peer that shares it from the
// old record to the new one.
func (r *Replicator) setState(key string, ks *keyState, epoch uint64, del, suspect bool, sum uint64) {
	old := *ks
	ks.epoch, ks.del, ks.suspect, ks.sum = epoch, del, suspect, sum
	r.refold(key, &old, ks)
}

// dropState removes key's record — whichever the table holds now, which
// after a blocking call need not be the one the caller fetched before it —
// from the table and from every digest.
func (r *Replicator) dropState(key string) {
	ks := r.keys[key]
	if ks == nil {
		return
	}
	delete(r.keys, key)
	r.refold(key, ks, &keyState{})
	ks.gone = true
}

// refold replaces was by is (the same key's record before and after a
// change) in the maintained digests.
func (r *Replicator) refold(key string, was, is *keyState) {
	if was.gone || (!was.confirmed() && !is.confirmed()) {
		return
	}
	if r.placementNow() != r.digestsAt {
		return // every digest is stale: the next use recomputes
	}
	set := r.replicaSet(key)
	if !containsID(set, r.cfg.ID) {
		return
	}
	// XOR is its own inverse: one delta takes the old entry out and puts the
	// new one in, the same for every peer.
	b := HashKey(key) % scrubBuckets
	out1, out2 := was.folds(key)
	in1, in2 := is.folds(key)
	for _, pid := range set {
		if pl := r.peers[pid]; pl != nil && pl.digest != nil {
			pl.digest[2*b] ^= out1 ^ in1
			pl.digest[2*b+1] ^= out2 ^ in2
		}
	}
}

// scrubber exchanges digests with every peer while armed. It is
// kick-driven: every genuine local epoch advance (a coordinated write, an
// accepted forward, a repair apply, a cold restart) grants a burst of
// scrubBurst rounds at ScrubInterval cadence, after which the scrubber
// parks on an event until the next kick. Receiving a digest or diff does
// NOT re-arm the receiver — only real state changes do — so a converged
// cluster stops exchanging digests, schedules no timers, and the
// simulation drains. Every armed replicator initiates toward all of its
// peers (not just higher ids): a freshly restarted node must be able to
// start reconciliation toward lower-id survivors.
func (r *Replicator) scrubber(p *sim.Proc) {
	if len(r.peerIDs) == 0 || r.cfg.ScrubInterval < 0 {
		return
	}
	for {
		for r.scrubLeft == 0 {
			ev := r.env.NewEvent()
			r.scrubWake = ev
			p.Wait(ev)
			r.scrubWake = nil
		}
		p.Sleep(r.cfg.ScrubInterval)
		r.scrubLeft--
		if r.isDown() {
			continue
		}
		// Background pacing: one token per digest round, deferred while
		// the host serves queued foreground work.
		r.pace(p)
		if r.isDown() {
			continue // crashed while the pacer held the round back
		}
		for _, pid := range r.peerIDs {
			r.Counters.Add("scrub-rounds", 1)
			r.send(p, pid, r.digestFrame(pid))
		}
		// The scrub pass is also when quarantined SSD media is drained and
		// returned to service: live slots on suspect regions are re-read,
		// re-verified, and either moved to fresh media or retired into a
		// repair-pull (EvacuateQuarantined); the reclaim then releases the
		// fully-dead regions back to the free pool.
		if moved, dropped := r.st.EvacuateQuarantined(p); moved > 0 || dropped > 0 {
			r.Counters.Add("quarantine-evacuated", int64(moved))
			r.Counters.Add("quarantine-evac-drops", int64(dropped))
		}
		if r.isDown() {
			continue // crashed during the evacuation I/O
		}
		if n := r.st.Manager().ReclaimQuarantined(); n > 0 {
			r.Counters.Add("quarantine-reclaims", int64(n))
		}
	}
}

// handleDigest compares a peer's digest with our own view of the shared
// keys and answers with our entries for every differing bucket.
func (r *Replicator) handleDigest(p *sim.Proc, f *frame) {
	mine := r.digest(f.From)
	n := len(mine) / 2
	if m := len(f.Buckets) / 2; m < n {
		n = m
	}
	var diff []uint64
	for b := 0; b < n; b++ {
		// Each bucket carries two independent folds; a mismatch in either
		// flags it (the second fold is what defeats colliding-pair masking
		// in the first).
		if mine[2*b] != f.Buckets[2*b] || mine[2*b+1] != f.Buckets[2*b+1] {
			diff = append(diff, uint64(b))
		}
	}
	if len(diff) == 0 {
		return
	}
	resp := &frame{Kind: frameDiff, Buckets: diff}
	for _, key := range r.sortedSharedKeys(f.From, diff) {
		ks := r.keys[key]
		resp.Entries = append(resp.Entries, KeyEpoch{Key: key, Epoch: ks.epoch, Del: ks.del, Sum: ks.sum})
	}
	r.send(p, f.From, resp)
}

// sortedSharedKeys lists the confirmed keys shared with pid that fall in one
// of the given buckets, in sorted order. Keys are filtered by bucket first: a
// round that differs in one bucket sorts that bucket's keys, not the table.
func (r *Replicator) sortedSharedKeys(pid int, buckets []uint64) []string {
	in := make([]bool, scrubBuckets)
	for _, b := range buckets {
		if b < uint64(len(in)) {
			in[b] = true
		}
	}
	return sortedKeys(r.keys, func(key string, ks *keyState) bool {
		return ks.confirmed() && in[HashKey(key)%uint64(len(in))] && r.sharedWith(pid, key)
	})
}

// handleDiff reconciles against the peer's entries for the differing
// buckets, then pushes what the peer does not hold at all.
func (r *Replicator) handleDiff(p *sim.Proc, f *frame) {
	theirs := make(map[string]bool, len(f.Entries))
	for _, e := range f.Entries {
		theirs[e.Key] = true
		if r.reconcile(p, f.From, e) {
			r.Counters.Add("repair-pulls", 1)
		}
	}
	// Keys we hold in a differing bucket that the peer did not list at all.
	for _, key := range r.sortedSharedKeys(f.From, f.Buckets) {
		if !theirs[key] {
			r.pushKey(p, f.From, key)
		}
	}
}

// reconcile settles one key against the record a peer says it holds — an
// entry of a scrub diff, or what a read-repair probe just served: pull what
// the peer holds fresher, push what we hold fresher. At equal epochs, both
// sides live and the content sums different, one side is silently corrupt:
// the epoch's coordinator keeps its copy, so either we push ours (we win — the
// peer's judge applies it under the same rule) or pull the peer's. Reports
// whether it asked the peer for its copy.
func (r *Replicator) reconcile(p *sim.Proc, from int, theirs KeyEpoch) bool {
	ks := r.keys[theirs.Key]
	mine := ks.confirmedEpoch()
	pull, push := mine < theirs.Epoch, mine > theirs.Epoch
	if mine == theirs.Epoch && mine != 0 && !ks.del && !theirs.Del && ks.sum != theirs.Sum {
		r.Counters.Add("scrub-corruptions-found", 1)
		push = winsSameEpoch(r.cfg.ID, from, mine)
		pull = !push
	}
	if push {
		r.pushKey(p, from, theirs.Key)
	}
	if pull {
		r.send(p, from, &frame{Kind: framePull, Key: theirs.Key})
	}
	return pull
}
