package replication

import (
	"testing"

	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
)

// State-machine contracts of the membership layer, independent of any
// fabric: epochs, union replica sets, seal-driven finalize, and the
// graceful/abrupt source distinction that decides who migration pulls from.

func memIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

func TestMembershipBootstrap(t *testing.T) {
	m := NewMembership(sim.NewEnv(), 2, memIDs(3))
	if m.Epoch() != 1 || m.Migrating() {
		t.Fatalf("bootstrap: epoch %d migrating %v", m.Epoch(), m.Migrating())
	}
	if got := m.Members(); len(got) != 3 {
		t.Fatalf("bootstrap members: %v", got)
	}
	for id := 0; id < 3; id++ {
		if m.State(id) != NodeActive {
			t.Errorf("server %d state %d, want NodeActive", id, m.State(id))
		}
	}
	// Stable: replica sets come straight off the single ring, everything
	// sealed, no double reads anywhere.
	if set := m.ReplicaSet(protocol.KeyOf("k"), 2); len(set) != 2 {
		t.Errorf("stable ReplicaSet: %v", set)
	}
	if !m.SealedFor(0, 5) {
		t.Error("stable membership reports an unsealed segment")
	}
	if m.NeedsDoubleRead(0, protocol.KeyOf("k")) {
		t.Error("stable membership demands a double read")
	}
}

// During a join the union replica set covers both rings, the joiner's reads
// are double-read gated until its segments seal, and sealing every
// (member, segment) pair finalizes: prev dropped, joiner active.
func TestMembershipJoinLifecycle(t *testing.T) {
	env := sim.NewEnv()
	m := NewMembership(env, 2, memIDs(3))
	done := m.BeginJoin(3)
	if m.Epoch() != 2 || !m.Migrating() {
		t.Fatalf("post-begin: epoch %d migrating %v", m.Epoch(), m.Migrating())
	}
	if m.State(3) != NodeJoining {
		t.Fatalf("joiner state %d", m.State(3))
	}
	if got := m.Sources(); len(got) != 3 {
		t.Fatalf("join sources %v, want all three old members", got)
	}

	// The union: every key's set includes the new ring's replicas first and
	// any old-ring-only holder after.
	sawUnion, sawDouble := false, false
	for _, key := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		set := m.ReplicaSet(protocol.KeyOf(key), 2)
		if len(set) < 2 {
			t.Errorf("union set for %q too small: %v", key, set)
		}
		if len(set) > 2 {
			sawUnion = true
		}
		if m.NeedsDoubleRead(3, protocol.KeyOf(key)) && !containsID(m.OldOwners(protocol.KeyOf(key), 3), 3) {
			sawDouble = true
			if len(m.OldOwners(protocol.KeyOf(key), 3)) == 0 {
				t.Errorf("double-read window for %q with no old owners to consult", key)
			}
		}
		// A node that held the key under the old ring never double-reads it.
		for _, id := range m.prev.Replicas(protocol.KeyOf(key), 2) {
			if m.NeedsDoubleRead(id, protocol.KeyOf(key)) {
				t.Errorf("old owner %d forced to double-read %q", id, key)
			}
		}
	}
	if !sawUnion {
		t.Error("no key's union set ever exceeded the factor — join moved nothing")
	}
	if !sawDouble {
		t.Error("no key ever entered the joiner's double-read window")
	}

	// Seal everything; the last seal finalizes and fires done.
	finals := 0
	m.Subscribe(func(epoch uint64, final bool) {
		if final && epoch == 2 {
			finals++
		}
	})
	for _, id := range m.Members() {
		for seg := 0; seg < Segments; seg++ {
			m.SealFor(2, id, seg)
			m.SealFor(2, id, seg) // duplicate seals are idempotent
		}
	}
	if m.Migrating() {
		t.Fatal("still migrating after every pair sealed")
	}
	if finals != 1 {
		t.Errorf("finalize notified %d times, want 1", finals)
	}
	if !done.Fired() {
		t.Error("done event did not fire on finalize")
	}
	if m.State(3) != NodeActive {
		t.Errorf("joiner state %d after finalize, want NodeActive", m.State(3))
	}
	if set := m.ReplicaSet(protocol.KeyOf("a"), 2); len(set) != 2 {
		t.Errorf("post-finalize ReplicaSet still a union: %v", set)
	}
}

// Graceful vs abrupt leave: the leaver stays a pull source only when
// graceful, and lands on NodeDead either way once the transition settles.
func TestMembershipLeaveSources(t *testing.T) {
	env := sim.NewEnv()

	g := NewMembership(env, 2, memIDs(4))
	g.BeginLeave(2, true)
	if g.State(2) != NodeLeaving {
		t.Errorf("graceful leaver state %d, want NodeLeaving", g.State(2))
	}
	if !containsID(g.Sources(), 2) {
		t.Errorf("graceful leaver missing from sources %v", g.Sources())
	}

	a := NewMembership(env, 2, memIDs(4))
	a.BeginLeave(2, false)
	if a.State(2) != NodeDead {
		t.Errorf("abrupt leaver state %d, want NodeDead", a.State(2))
	}
	if containsID(a.Sources(), 2) {
		t.Errorf("abrupt leaver still in sources %v", a.Sources())
	}
	for _, m := range []*Membership{g, a} {
		if containsID(m.Members(), 2) {
			t.Error("leaver still on the current ring")
		}
		// OldOwners never proposes a dead node as a double-read source.
		for _, key := range []string{"a", "b", "c", "d"} {
			if m == a && containsID(m.OldOwners(protocol.KeyOf(key), 0), 2) {
				t.Errorf("dead node offered as old owner of %q", key)
			}
		}
	}
}

// Transitions serialize: a second Begin* during a migration panics, and a
// stale-epoch seal is ignored rather than corrupting the new transition.
func TestMembershipSerializesTransitions(t *testing.T) {
	env := sim.NewEnv()
	m := NewMembership(env, 2, memIDs(3))
	m.BeginJoin(3)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("second Begin mid-migration did not panic")
			}
		}()
		m.BeginLeave(0, true)
	}()
	// A seal stamped with a bogus epoch must not count.
	m.SealFor(99, 0, 0)
	if m.SealedFor(0, 0) {
		t.Error("stale-epoch seal was accepted")
	}
}
