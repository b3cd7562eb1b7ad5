package replication

import (
	"hybridkv/internal/keytab"
	"hybridkv/internal/metrics"
	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
)

// Migration engine
//
// Every replicator runs a migrator proc. When a
// transition begins it walks the hash space segment by segment: for each
// segment it asks every pull source (the previous ring's live members) for
// a manifest of the keys it now owns there, compares the manifest against
// local epochs, and issues the ordinary anti-entropy framePull for every
// key it lacks — the source answers with the same repair push a scrub diff
// would trigger, so migration literally reuses the anti-entropy frames and
// inherits their epoch-guarded, idempotent apply path. Only when every
// source has answered and every wanted key arrived (or proved gone
// everywhere) does the migrator seal the segment with Membership.SealFor.
//
// The pull-based design is what makes sealing safe under chaos: a dropped
// push can never silently count as delivered, because the want it left
// open keeps the segment unsealed and the retry loop re-pulls it. A source
// that is down (killed mid-migration) simply doesn't answer; the loop
// re-sends its SegPull until the node cold-restarts and pushes whatever
// its recovery confirmed, while the other sources cover the overlap.
//
// After the transition finalizes, each node garbage-collects the keys it
// no longer replicates (deleting them also unpublishes their bypass
// directory slots, so one-sided READs cannot land on a moved key's stale
// slot past the seqlock check).

// migWant is one key the migrator still owes itself: the freshest epoch
// any manifest promised, and which sources might still push it.
type migWant struct {
	epoch uint64
	from  map[int]bool
}

// segPull is the in-flight migration state of one segment.
type segPull struct {
	seg     int
	epoch   uint64       // membership epoch of the transition
	waiting map[int]bool // sources yet to answer with a manifest
	wants   keytab.Table[*migWant]
	done    *sim.Event
}

func (st *segPull) maybeDone() {
	if len(st.waiting) == 0 && st.wants.Len() == 0 &&
		st.done != nil && !st.done.Fired() {
		st.done.Fire()
	}
}

// MembershipEpoch returns the membership's epoch. The server stamps it into
// directory query answers so bypass clients can detect a stale location cache
// on the wire.
func (r *Replicator) MembershipEpoch() uint64 { return r.mem.Epoch() }

// replicaSet is the routing primitive: the membership's epoch-aware union.
func (r *Replicator) replicaSet(k protocol.Key) []int {
	return r.mem.ReplicaSet(k, r.mem.Factor())
}

// migrator drives this node's side of every membership transition. It
// parks between transitions (no timers, so a stable cluster drains), and
// on each epoch: pulls and seals every segment if this node is a current
// member, waits for the global finalize, then garbage-collects keys this
// node no longer replicates.
func (r *Replicator) migrator(p *sim.Proc) {
	var seen uint64
	for {
		for !r.mem.Migrating() || r.mem.Epoch() == seen {
			ev := r.env.NewEvent()
			r.memWake = ev
			p.Wait(ev)
			r.memWake = nil
		}
		epoch := r.mem.Epoch()
		seen = epoch
		if containsID(r.mem.Members(), r.cfg.ID) {
			for seg := 0; seg < Segments; seg++ {
				if !r.migrateSegment(p, epoch, seg) {
					break // transition superseded
				}
			}
		}
		if done := r.mem.DoneOf(epoch); done != nil {
			p.Wait(done)
		}
		r.gcMoved(p)
	}
}

// migrateSegment pulls one segment from every source and seals it. Returns
// false if the transition was superseded before the seal.
func (r *Replicator) migrateSegment(p *sim.Proc, epoch uint64, seg int) bool {
	var st *segPull
	var gen uint64
	for {
		if !r.mem.Migrating() || r.mem.Epoch() != epoch {
			r.migPulls[seg] = nil
			return false
		}
		if r.isDown() {
			// A dead node neither pulls nor seals; keep checking until the
			// cold restart brings us back.
			p.Sleep(4 * pullTimeout)
			continue
		}
		if st == nil || gen != r.gen {
			// The first round — or the first after a Wipe, which took the
			// installed state and every key the segment had moved with it. The
			// segment starts over: fresh manifests list every key again, and
			// what survived or came back another way is skipped as current.
			// (Old wants carried over wedge the migration: one whose key landed
			// while nothing was installed to notice is re-pulled forever, every
			// answer a duplicate of what is already held.)
			st, gen = &segPull{seg: seg, epoch: epoch, waiting: make(map[int]bool)}, r.gen
			for _, id := range r.mem.Sources() {
				if id != r.cfg.ID {
					st.waiting[id] = true
				}
			}
		}
		if len(st.waiting) == 0 && st.wants.Len() == 0 {
			r.migPulls[seg] = nil
			r.mem.SealFor(epoch, r.cfg.ID, seg)
			r.Counters.Inc(metrics.CMigrateSeals)
			return true
		}
		// Background pacing: one token per pull round. Deferred rounds are
		// re-sent later, never dropped, so a paced rebalance still seals
		// every segment; the loop re-checks supersession after the wait.
		r.pace(p)
		if !r.mem.Migrating() || r.mem.Epoch() != epoch {
			r.migPulls[seg] = nil
			return false
		}
		if r.isDown() || gen != r.gen {
			continue
		}
		st.done = r.env.NewEvent()
		r.migPulls[seg] = st
		f := r.newFrame(frameSegPull, protocol.Key{})
		f.Seg, f.epoch = seg, epoch
		for _, pid := range sortedKeys(st.waiting, nil) {
			r.send(p, pid, f)
		}
		f.Release()
		for _, k := range sortedWants(&st.wants) {
			w, _ := st.wants.Get(k)
			f := r.newFrame(framePull, k)
			for _, pid := range sortedKeys(w.from, nil) {
				r.send(p, pid, f)
			}
			f.Release()
		}
		p.WaitTimeout(st.done, 4*pullTimeout)
	}
}

// handleSegPull answers a migration manifest request: every confirmed key
// in the segment that the requester owns under the new ring. An empty
// manifest is still sent — "answered, nothing for you" seals faster than a
// timeout.
func (r *Replicator) handleSegPull(p *sim.Proc, f *frame) {
	if !r.mem.Migrating() || r.mem.Epoch() != f.epoch {
		return
	}
	resp := r.newFrame(frameSegManifest, protocol.Key{})
	resp.Seg, resp.epoch, resp.Entries = f.Seg, f.epoch, r.frames.spareEntries()
	newRing := r.mem.Ring()
	theirs := func(k protocol.Key, ks *keyState) bool {
		return ks.confirmed() && SegmentOf(k) == f.Seg && containsID(newRing.Replicas(k, r.mem.Factor()), f.From)
	}
	for _, k := range r.keys.sorted(nil, nil, theirs) {
		resp.Entries = append(resp.Entries, KeyEpoch{Key: k, Epoch: r.keys.get(k).epoch})
	}
	r.Counters.Inc(metrics.CMigrateManifests)
	r.post(p, f.From, resp)
}

// handleSegManifest records a source's answer: pull every listed key we do
// not hold at the promised epoch yet.
func (r *Replicator) handleSegManifest(p *sim.Proc, f *frame) {
	st := r.migPulls[f.Seg]
	if st == nil || st.epoch != f.epoch {
		return
	}
	delete(st.waiting, f.From)
	for _, e := range f.Entries {
		if r.keys.get(e.Key).confirmedEpoch() >= e.Epoch {
			continue // already current (or fresher) locally
		}
		w, _ := st.wants.Get(e.Key)
		if w == nil {
			w = &migWant{epoch: e.Epoch, from: make(map[int]bool)}
			st.wants.Put(e.Key, w)
		}
		if e.Epoch > w.epoch {
			w.epoch = e.Epoch
		}
		w.from[f.From] = true
		r.post(p, f.From, r.newFrame(framePull, e.Key))
	}
	st.maybeDone()
}

// migSatisfy retires an open migration want once the key's local epoch
// reached what a manifest promised. Called on every local epoch advance.
func (r *Replicator) migSatisfy(k protocol.Key, epoch uint64) {
	st := r.migPulls[SegmentOf(k)]
	if st == nil {
		return
	}
	w, _ := st.wants.Get(k)
	if w == nil || epoch < w.epoch {
		return
	}
	st.wants.Delete(k)
	r.Counters.Inc(metrics.CMigrateKeysMoved)
	st.maybeDone()
}

// migPullMissed records a source's "don't have it" for an open migration
// want. Only when every source that promised (or was asked for) the key
// missed is the want dropped: the key is then gone everywhere reachable,
// and a miss is legal — sealing cannot lose what no longer exists.
func (r *Replicator) migPullMissed(k protocol.Key, from int) {
	st := r.migPulls[SegmentOf(k)]
	if st == nil {
		return
	}
	w, _ := st.wants.Get(k)
	if w == nil || !w.from[from] {
		return
	}
	delete(w.from, from)
	if len(w.from) > 0 {
		return
	}
	st.wants.Delete(k)
	st.maybeDone()
}

// sortedWants lists the keys of wants, sorted.
func sortedWants(wants *keytab.Table[*migWant]) []protocol.Key {
	var keys []protocol.Key
	for k := range wants.All() {
		keys = append(keys, k)
	}
	sortKeys(keys)
	return keys
}

// doubleRead confirms a key this node is gaining against the old owners
// before a read-path decision: the first confirmed push (or a prior
// confirm) returns true, an all-miss returns true with the key legally
// absent, and a timeout returns false — the caller then answers retryable
// so the client fails over to an old owner instead of eating a fabricated
// miss. It is the key's one pull (openPull), so a concurrent suspect
// confirmation and a double-read coalesce.
func (r *Replicator) doubleRead(p *sim.Proc, k protocol.Key) bool {
	srcs := r.mem.OldOwners(k, r.cfg.ID)
	if len(srcs) == 0 {
		return true // nobody left to consult; serve local state
	}
	ks := r.state(k)
	if ks.epoch != 0 && !ks.suspect {
		return true
	}
	var peers peerSet
	for _, pid := range srcs {
		peers.add(pid)
	}
	return r.waitPull(p, ks, r.openPull(p, k, ks, &peers, metrics.CMigrateDoubleReads))
}

// gcMoved drops every key this node no longer replicates after a finalized
// transition. Deleting through the store also unpublishes the key's bypass
// directory slot, closing the one-sided-READ staleness window. The replica
// check goes through replicaSet, so if a newer transition is already in
// flight the union keeps anything still owed.
func (r *Replicator) gcMoved(p *sim.Proc) {
	if r.isDown() {
		return
	}
	for _, k := range r.keys.sorted(nil, nil, nil) {
		if r.keys.get(k) == nil || containsID(r.replicaSet(k), r.cfg.ID) {
			continue
		}
		r.dropState(k)
		r.st.DeleteIf(p, k, nil)
		r.Counters.Inc(metrics.CMigrateGCKeys)
	}
}
