package core

import (
	"fmt"
	"testing"

	"hybridkv/internal/protocol"
	"hybridkv/internal/replication"
)

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("obj:%010d", i)
	}
	return keys
}

// TestRingBalance: with ketama vnodes, key load across servers stays near
// uniform — every server within ±35% of the fair share for 8 servers.
func TestRingBalance(t *testing.T) {
	const servers = 8
	r := replication.NewRing()
	for s := 0; s < servers; s++ {
		r.Add(s)
	}
	keys := ringKeys(20000)
	counts := make([]int, servers)
	for _, k := range keys {
		counts[r.Pick(protocol.KeyOf(k))]++
	}
	fair := float64(len(keys)) / servers
	for s, n := range counts {
		if ratio := float64(n) / fair; ratio < 0.65 || ratio > 1.35 {
			t.Errorf("server %d owns %d keys (%.2fx fair share), want within [0.65,1.35]", s, n, ratio)
		}
	}
}

// TestRingStability: pick is deterministic and unaffected by re-sorting.
func TestRingStability(t *testing.T) {
	r := replication.NewRing()
	for s := 0; s < 4; s++ {
		r.Add(s)
	}
	keys := ringKeys(1000)
	first := make([]int, len(keys))
	for i, k := range keys {
		first[i] = r.Pick(protocol.KeyOf(k))
	}
	for i, k := range keys {
		if got := r.Pick(protocol.KeyOf(k)); got != first[i] {
			t.Fatalf("pick(%q) changed between calls: %d then %d", k, first[i], got)
		}
	}
}

// TestRingKeyMovementOnAdd locks the consistent-hashing contract: growing
// the pool from N to N+1 servers moves roughly 1/(N+1) of the keys — and
// every key that moves, moves TO the new server, never between old ones.
func TestRingKeyMovementOnAdd(t *testing.T) {
	const before = 4
	r := replication.NewRing()
	for s := 0; s < before; s++ {
		r.Add(s)
	}
	keys := ringKeys(20000)
	old := make([]int, len(keys))
	for i, k := range keys {
		old[i] = r.Pick(protocol.KeyOf(k))
	}
	r.Add(before)
	moved := 0
	for i, k := range keys {
		now := r.Pick(protocol.KeyOf(k))
		if now == old[i] {
			continue
		}
		moved++
		if now != before {
			t.Fatalf("key %q moved from server %d to old server %d, not the new one", k, old[i], now)
		}
	}
	frac := float64(moved) / float64(len(keys))
	ideal := 1.0 / (before + 1)
	if frac < ideal*0.6 || frac > ideal*1.6 {
		t.Errorf("add moved %.1f%% of keys, want ≈%.1f%% (±60%%)", 100*frac, 100*ideal)
	}
}

// TestRingMovementBoundAcrossJoins: growing the pool from 3 to 9 servers
// one join at a time, every join moves at most 1.5 × K/N keys (N the
// post-join size — the consistent-hashing bound with vnode slack), always
// a nonzero number of them, and every moved key lands on the joiner. This
// is the contract dynamic membership's migration cost rides on: each join
// re-streams ~1/N of the key space, never a reshuffle among old members.
func TestRingMovementBoundAcrossJoins(t *testing.T) {
	keys := ringKeys(20000)
	r := replication.NewRing()
	for s := 0; s < 3; s++ {
		r.Add(s)
	}
	owner := make([]int, len(keys))
	for i, k := range keys {
		owner[i] = r.Pick(protocol.KeyOf(k))
	}
	for n := 3; n < 9; n++ {
		r.Add(n)
		moved := 0
		for i, k := range keys {
			now := r.Pick(protocol.KeyOf(k))
			if now != owner[i] {
				moved++
				if now != n {
					t.Fatalf("join of %d moved %q from server %d to old server %d", n, k, owner[i], now)
				}
			}
			owner[i] = now
		}
		bound := int(1.5 * float64(len(keys)) / float64(n+1))
		if moved > bound {
			t.Errorf("join of %d moved %d keys, above the 1.5·K/N bound of %d", n, moved, bound)
		}
		if moved == 0 {
			t.Errorf("join of %d moved no keys at all", n)
		}
	}
}

// TestRingReplicaSetMovementOnJoin: the movement bound extends to whole
// replica sets — a join only ever inserts the joiner into a key's set
// (displacing at most the set's last member), never swaps two old servers,
// and the fraction of keys whose set changes at all stays within
// 1.5 × R/N.
func TestRingReplicaSetMovementOnJoin(t *testing.T) {
	const before, rf = 5, 2
	r := replication.NewRing()
	for s := 0; s < before; s++ {
		r.Add(s)
	}
	keys := ringKeys(20000)
	old := make(map[string][]int, len(keys))
	for _, k := range keys {
		old[k] = r.Replicas(protocol.KeyOf(k), rf)
	}
	r.Add(before)
	changed := 0
	for _, k := range keys {
		now := r.Replicas(protocol.KeyOf(k), rf)
		same := len(now) == len(old[k])
		for i := range now {
			if same && now[i] != old[k][i] {
				same = false
			}
		}
		if same {
			continue
		}
		changed++
		gained := false
		for _, id := range now {
			if id == before {
				gained = true
				continue
			}
			was := false
			for _, o := range old[k] {
				if o == id {
					was = true
				}
			}
			if !was {
				t.Fatalf("key %q gained old server %d on a join (set %v -> %v)", k, id, old[k], now)
			}
		}
		if !gained {
			t.Fatalf("key %q changed its set without gaining the joiner (%v -> %v)", k, old[k], now)
		}
	}
	frac := float64(changed) / float64(len(keys))
	if bound := 1.5 * float64(rf) / float64(before+1); frac > bound {
		t.Errorf("join changed %.1f%% of replica sets, above the 1.5·R/N bound of %.1f%%",
			100*frac, 100*bound)
	}
	if changed == 0 {
		t.Error("join changed no replica set at all")
	}
}

// TestRingKeyMovementOnRemove: removing a server reassigns only that
// server's keys; everything else stays put.
func TestRingKeyMovementOnRemove(t *testing.T) {
	const servers = 5
	r := replication.NewRing()
	for s := 0; s < servers; s++ {
		r.Add(s)
	}
	keys := ringKeys(20000)
	old := make([]int, len(keys))
	for i, k := range keys {
		old[i] = r.Pick(protocol.KeyOf(k))
	}
	const victim = 2
	r.Remove(victim)
	for i, k := range keys {
		now := r.Pick(protocol.KeyOf(k))
		if now == victim {
			t.Fatalf("key %q still maps to removed server", k)
		}
		if old[i] != victim && now != old[i] {
			t.Fatalf("key %q on surviving server %d was reassigned to %d", k, old[i], now)
		}
	}
}

// TestRingEmptyPanics: picking from an empty ring is a programming error.
func TestRingEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("pick on empty ring did not panic")
		}
	}()
	replication.NewRing().Pick(protocol.KeyOf("k"))
}
