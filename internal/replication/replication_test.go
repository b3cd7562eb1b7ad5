package replication

import (
	"testing"

	"hybridkv/internal/metrics"
	"hybridkv/internal/sim"
)

// Replica sets must be stable, the right size, duplicate-free, and led by
// the ring's primary: the client's replica-aware routing and the server's
// membership checks both assume exactly this shape.
func TestRingReplicaSets(t *testing.T) {
	ring := NewRing()
	for i := 0; i < 5; i++ {
		ring.Add(i)
	}
	keys := []string{"a", "bb", "repl:0001", "chaos:w2:k1", "flood:0042", "x:y:z"}
	for _, key := range keys {
		set := ring.Replicas(key, 3)
		if len(set) != 3 {
			t.Fatalf("Replicas(%q, 3) returned %d ids: %v", key, len(set), set)
		}
		seen := map[int]bool{}
		for _, id := range set {
			if id < 0 || id >= 5 {
				t.Errorf("Replicas(%q) produced out-of-range id %d", key, id)
			}
			if seen[id] {
				t.Errorf("Replicas(%q) repeats id %d: %v", key, id, set)
			}
			seen[id] = true
		}
		if set[0] != ring.Pick(key) {
			t.Errorf("Replicas(%q)[0] = %d, want the primary %d", key, set[0], ring.Pick(key))
		}
		again := ring.Replicas(key, 3)
		for i := range set {
			if set[i] != again[i] {
				t.Errorf("Replicas(%q) unstable: %v then %v", key, set, again)
			}
		}
		if one := ring.Replicas(key, 1); len(one) != 1 || one[0] != ring.Pick(key) {
			t.Errorf("Replicas(%q, 1) = %v, want just the primary", key, one)
		}
	}
}

// Epochs are the replication protocol's whole ordering story: two
// coordinators minting concurrently must never collide, every mint must
// exceed what it was minted above, and the coordinator id must be
// recoverable from the low byte.
func TestNextEpochOrdering(t *testing.T) {
	r1 := &Replicator{cfg: Config{ID: 1}}
	r2 := &Replicator{cfg: Config{ID: 2}}

	e1, e2 := r1.nextEpoch(0), r2.nextEpoch(0)
	if e1 == e2 {
		t.Fatalf("concurrent coordinators minted the same epoch %d", e1)
	}
	if e1&0xff != 1 || e2&0xff != 2 {
		t.Errorf("coordinator ids not recoverable: %x, %x", e1, e2)
	}
	if e1 == 0 || e2 == 0 {
		t.Error("a minted epoch must be nonzero (zero means unconfirmed)")
	}
	// Re-coordinating above a conflicting epoch must actually get above it.
	above := r1.nextEpoch(e2)
	if above <= e2 {
		t.Errorf("nextEpoch(%x) = %x does not exceed its floor", e2, above)
	}
	// Chains are strictly monotonic per coordinator.
	cur := uint64(0)
	for i := 0; i < 100; i++ {
		next := r2.nextEpoch(cur)
		if next <= cur {
			t.Fatalf("epoch chain stalled: %x then %x", cur, next)
		}
		cur = next
	}
}

// A duplicated framePullMiss (the fault injector duplicates frames) must
// not count as two peers missing — that would conclude "all peers missed"
// and drop a suspect key another peer actually holds. One peer's answer is
// consumed once, and answers from peers that were never asked are ignored.
func TestPullMissDeduplicatesByPeer(t *testing.T) {
	env := sim.NewEnv()
	r := &Replicator{env: env, keys: make(map[string]*keyState)}
	ks := &keyState{suspect: true, pull: env.NewEvent(), pullFrom: map[int]bool{1: true, 2: true}}
	r.keys["k"] = ks

	r.handlePullMiss(nil, &frame{Kind: framePullMiss, Key: "k", From: 1})
	r.handlePullMiss(nil, &frame{Kind: framePullMiss, Key: "k", From: 1}) // injector duplicate
	r.handlePullMiss(nil, &frame{Kind: framePullMiss, Key: "k", From: 9}) // never asked

	if ks.pull == nil || ks.pull.Fired() {
		t.Fatal("pull concluded after one peer's duplicated miss; peer 2 never answered")
	}
	if len(ks.pullFrom) != 1 || !ks.pullFrom[2] {
		t.Errorf("outstanding peer set = %v, want just peer 2", ks.pullFrom)
	}
	if n := r.Counters.Val(metrics.CSuspectDrops); n != 0 {
		t.Errorf("suspect-drops = %d, want 0 while a peer is outstanding", n)
	}
}

// The digest must be insensitive to iteration order (XOR fold) and
// sensitive to every component: epoch, key, and the value-content checksum.
func TestDigestEntryDistinguishes(t *testing.T) {
	base := digestEntry("k", 0x100, 7)
	if digestEntry("k", 0x100, 7) != base {
		t.Error("digestEntry is not deterministic")
	}
	if digestEntry("k", 0x200, 7) == base {
		t.Error("digest ignores the epoch")
	}
	if digestEntry("j", 0x100, 7) == base {
		t.Error("digest ignores the key")
	}
	if digestEntry("k", 0x100, 8) == base {
		t.Error("digest ignores the value content checksum")
	}
}
