package cluster

import (
	"fmt"
	"hybridkv/internal/metrics"
	"testing"

	"hybridkv/internal/core"
	"hybridkv/internal/protocol"
	"hybridkv/internal/replication"
	"hybridkv/internal/server"
	"hybridkv/internal/sim"
)

// End-to-end dynamic membership: these drive real client traffic through a
// replicated cluster while servers join, leave, and die, and then check the
// durability promise directly — every acked write is still readable at its
// acked value, no matter how the ring moved underneath it.

const (
	memKeys  = 48
	memValue = 512
)

func memKey(i int) string { return fmt.Sprintf("mem:%04d", i) }

func memCluster(servers int) *Cluster {
	return New(Config{
		Design:            HRDMAOptNonBB,
		Profile:           ClusterA(),
		Servers:           servers,
		Clients:           1,
		ServerMem:         8 << 20,
		ReplicationFactor: 2,
	})
}

func memHas(set []int, id int) bool {
	for _, have := range set {
		if have == id {
			return true
		}
	}
	return false
}

// memPreload writes every key through the client so each one carries the
// full R=2 ack; returns false (with errors logged) if any write failed.
func memPreload(t *testing.T, c *core.Client, p *sim.Proc) bool {
	ok := true
	for i := 0; i < memKeys; i++ {
		if st := c.Set(p, memKey(i), memValue, uint64(i+1), 0, 0); st != protocol.StatusStored {
			t.Errorf("preload %q: %v", memKey(i), st)
			ok = false
		}
	}
	return ok
}

// memVerify reads every key back through the client and checks the acked
// value survived.
func memVerify(t *testing.T, c *core.Client, p *sim.Proc, when string) {
	for i := 0; i < memKeys; i++ {
		v, _, st := c.Get(p, memKey(i))
		if st != protocol.StatusOK {
			t.Errorf("%s: get %q: %v", when, memKey(i), st)
			continue
		}
		if seq, _ := v.(uint64); seq != uint64(i+1) {
			t.Errorf("%s: %q observed seq %d, want %d", when, memKey(i), seq, i+1)
		}
	}
}

// A join must migrate the newcomer's key range over while the data stays
// readable, seal every (member, segment) pair exactly once, and leave the
// newcomer physically holding every key it now replicates — with the old
// owners garbage-collected down to their shrunken ranges.
func TestJoinMigratesAndServes(t *testing.T) {
	cl := memCluster(3)
	c := cl.Clients[0]

	cl.Env.Spawn("mem-join", func(p *sim.Proc) {
		if !memPreload(t, c, p) {
			return
		}
		srv, done := cl.Join()
		if got := cl.Membership.Epoch(); got != 2 {
			t.Errorf("epoch after join begin: %d, want 2", got)
		}
		if cl.Membership.State(3) != replication.NodeJoining {
			t.Errorf("joiner state %d, want NodeJoining", cl.Membership.State(3))
		}
		cl.AwaitRebalance(p)
		if !done.Fired() {
			t.Error("join finalize event never fired")
		}
		if cl.Membership.Migrating() {
			t.Error("still migrating after AwaitRebalance")
		}
		if cl.Membership.State(3) != replication.NodeActive {
			t.Errorf("joiner state %d after finalize, want NodeActive", cl.Membership.State(3))
		}
		// Let the per-node GC passes (woken by the same finalize) run.
		p.Sleep(5 * sim.Millisecond)

		memVerify(t, c, p, "after join")

		ring := cl.Membership.Ring()
		owned, held := 0, 0
		for i := 0; i < memKeys; i++ {
			key := memKey(i)
			member := memHas(ring.Replicas(key, 2), 3)
			_, _, _, ok := srv.Store().ReadItem(p, key)
			if member {
				owned++
				if !ok {
					t.Errorf("joiner owns %q but does not hold it", key)
				}
			} else if ok {
				t.Errorf("joiner holds %q outside its range (GC missed it)", key)
			}
			if ok {
				held++
			}
		}
		if owned == 0 {
			t.Error("join moved zero keys onto the new server — ring did not rebalance")
		}
		// The old owners must have dropped what moved away entirely.
		for sid, s := range cl.Servers[:3] {
			for i := 0; i < memKeys; i++ {
				key := memKey(i)
				if memHas(ring.Replicas(key, 2), sid) {
					continue
				}
				if _, _, _, ok := s.Store().ReadItem(p, key); ok {
					t.Errorf("server %d still holds %q after losing it to the joiner", sid, key)
				}
			}
		}
	})
	cl.Env.Run()

	total := cl.ReplicationCounters()
	if want := int64(4 * replication.Segments); total.Val(metrics.CMigrateSeals) != want {
		t.Errorf("migrate-seals = %d, want %d (members × segments)", total.Val(metrics.CMigrateSeals), want)
	}
	if total.Val(metrics.CMigrateKeysMoved) == 0 {
		t.Error("join migrated zero keys")
	}
	if total.Val(metrics.CMigrateGCKeys) == 0 {
		t.Error("no key was garbage-collected off an old owner")
	}
}

// A graceful decommission drains the leaver's range to the survivors before
// the node is crashed; every acked write must remain readable afterwards and
// the client's per-server state for the dead node must be released.
func TestDecommissionDrainsWithoutLoss(t *testing.T) {
	cl := memCluster(4)
	c := cl.Clients[0]
	victim := 2

	cl.Env.Spawn("mem-decom", func(p *sim.Proc) {
		if !memPreload(t, c, p) {
			return
		}
		cl.Decommission(victim)
		if cl.Membership.State(victim) != replication.NodeLeaving {
			t.Errorf("victim state %d during drain, want NodeLeaving", cl.Membership.State(victim))
		}
		cl.AwaitRebalance(p)
		// The decommission watcher crashes the server and retires the client
		// conns after the same finalize; give it (and the GC passes) room.
		p.Sleep(5 * sim.Millisecond)
		if cl.Membership.State(victim) != replication.NodeDead {
			t.Errorf("victim state %d after finalize, want NodeDead", cl.Membership.State(victim))
		}
		if memHas(cl.Membership.Members(), victim) {
			t.Error("victim still on the current ring after decommission")
		}
		memVerify(t, c, p, "after decommission")
	})
	cl.Env.Run()

	if n := c.Counters.Val(metrics.CRetiredConns); n == 0 {
		t.Error("decommission never retired the client's conn state")
	}
	total := cl.ReplicationCounters()
	if total.Val(metrics.CMigrateKeysMoved) == 0 {
		t.Error("decommission migrated zero keys")
	}
}

// Killing a migration source mid-join must not wedge the transition or lose
// data: the joiner keeps re-pulling until the node cold-restarts, the other
// replicas cover the overlap, and the rebalance still finalizes with every
// acked write intact.
func TestKillDuringJoinConverges(t *testing.T) {
	cl := memCluster(3)
	c := cl.Clients[0]
	victim := 1

	cl.Env.Spawn("mem-kill", func(p *sim.Proc) {
		if !memPreload(t, c, p) {
			return
		}
		_, done := cl.Join()
		// RAM gone, SSD intact — mid-migration.
		cl.Servers[victim].Outage(p, server.KillRAM, 500*sim.Microsecond)
		cl.AwaitRebalance(p)
		if !done.Fired() {
			t.Error("join finalize event never fired despite the restart")
		}
		p.Sleep(5 * sim.Millisecond)
		memVerify(t, c, p, "after kill-during-join")
	})
	cl.Env.Run()

	total := cl.ReplicationCounters()
	if total.Val(metrics.CMigrateSeals) == 0 {
		t.Error("no segment was ever sealed")
	}
}

// An abrupt leave (node already gone for good) excludes the dead node from
// the pull sources: the survivors re-replicate its range from each other,
// and every acked write stays readable at R=2.
func TestAbruptLeaveReReplicates(t *testing.T) {
	cl := memCluster(4)
	c := cl.Clients[0]
	victim := 1

	cl.Env.Spawn("mem-leave", func(p *sim.Proc) {
		if !memPreload(t, c, p) {
			return
		}
		cl.Servers[victim].Kill(true) // gone, SSD wiped — not coming back
		done := cl.Leave(victim)
		cl.AwaitRebalance(p)
		if !done.Fired() {
			t.Error("leave finalize event never fired")
		}
		p.Sleep(5 * sim.Millisecond)
		memVerify(t, c, p, "after abrupt leave")

		// Full durability: every key is on all members of its new replica set.
		ring := cl.Membership.Ring()
		for i := 0; i < memKeys; i++ {
			key := memKey(i)
			for _, sid := range ring.Replicas(key, 2) {
				if _, _, _, ok := cl.Servers[sid].Store().ReadItem(p, key); !ok {
					t.Errorf("server %d missing re-replicated copy of %q", sid, key)
				}
			}
		}
	})
	cl.Env.Run()

	if n := c.Counters.Val(metrics.CRetiredConns); n == 0 {
		t.Error("abrupt leave never retired the client's conn state")
	}
}

// Back-to-back transitions: a join followed by a decommission of an original
// member — the serialized state machine must run both to completion and the
// data survives the double reshuffle.
func TestBackToBackTransitions(t *testing.T) {
	cl := memCluster(3)
	c := cl.Clients[0]

	cl.Env.Spawn("mem-b2b", func(p *sim.Proc) {
		if !memPreload(t, c, p) {
			return
		}
		cl.Join()
		cl.AwaitRebalance(p)
		p.Sleep(2 * sim.Millisecond)
		cl.Decommission(0)
		cl.AwaitRebalance(p)
		p.Sleep(5 * sim.Millisecond)
		if got := cl.Membership.Epoch(); got != 3 {
			t.Errorf("epoch after two transitions: %d, want 3", got)
		}
		memVerify(t, c, p, "after join+decommission")
	})
	cl.Env.Run()

	if got := cl.Membership.Transitions; got != 2 {
		t.Errorf("Transitions = %d, want 2", got)
	}
}

// A joined server's replicator is configured like the original fleet's: on
// a scrub-disabled cluster (NoScrub) it must not scrub either.
// The migration and the writes that follow advance its epochs — what arms a
// scrubber that is running.
func TestJoinedReplicatorKeepsScrubDisabled(t *testing.T) {
	cl := New(Config{
		Design:            HRDMAOptNonBB,
		Profile:           ClusterA(),
		Servers:           3,
		Clients:           1,
		ServerMem:         8 << 20,
		ReplicationFactor: 2,
		NoScrub:           true,
	})
	c := cl.Clients[0]
	cl.Env.Spawn("mem-join-noscrub", func(p *sim.Proc) {
		if !memPreload(t, c, p) {
			return
		}
		cl.Join()
		cl.AwaitRebalance(p)
		memPreload(t, c, p) // the joiner now coordinates and accepts writes
	})
	cl.Env.Run()
	for id, r := range cl.Replicators {
		if n := r.Counters.Val(metrics.CScrubRounds); n != 0 {
			t.Errorf("replicator %d ran %d scrub rounds on a scrub-disabled cluster", id, n)
		}
	}
	if cl.Replicators[3].Counters.Val(metrics.CForwards) == 0 {
		t.Error("the joiner coordinated no write: nothing would have armed its scrubber")
	}
}
