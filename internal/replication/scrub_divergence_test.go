package replication_test

import (
	"hybridkv/internal/metrics"
	"testing"

	"hybridkv/internal/cluster"
	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
)

// The same-epoch content-divergence repair: one replica's applied value
// flips silently in RAM — bytes and recorded sum change together, the
// epoch does not. An epoch-only digest calls the pair converged forever;
// the content fold must flag it, the coordinator rule must pick a winner,
// and the repair write must converge the loser onto the winner's bytes.
// These two tests pin both directions of that rule and the
// scrub-corruptions-found / scrub-corruptions-repaired counters the bitrot
// experiment reports.

// divergeSetup drives one replicated SET and returns the key's replica
// pair split into the epoch's coordinator and the other member.
func divergeSetup(t *testing.T, p *sim.Proc, cl *cluster.Cluster, key string) (coord, other int, goodSum uint64, ok bool) {
	t.Helper()
	c := cl.Clients[0]
	if st := c.Set(p, key, itValue, uint64(1), 0, 0); st != protocol.StatusStored {
		t.Errorf("set %q: %v", key, st)
		return 0, 0, 0, false
	}
	reps := itRing(3).Replicas(protocol.KeyOf(key), 2)
	epoch, goodSum, okS := cl.Replicators[reps[0]].AppliedStateForTest(key)
	if !okS {
		t.Errorf("primary holds no confirmed record of %q after an acked SET", key)
		return 0, 0, 0, false
	}
	coord = int(epoch & 0xff)
	if coord != reps[0] && coord != reps[1] {
		t.Errorf("epoch %#x of %q minted outside the replica set %v; pick another key", epoch, key, reps)
		return 0, 0, 0, false
	}
	return coord, reps[0] + reps[1] - coord, goodSum, true
}

// corruptApplied flips server id's applied copy of key in place: the store
// bytes and the replicator's recorded sum change together; the epoch
// stands. This is the state at-rest rot can never reach (foreground
// verification retires it first) — only silent RAM corruption can.
func corruptApplied(t *testing.T, p *sim.Proc, cl *cluster.Cluster, id int, key string) {
	t.Helper()
	bad := uint64(999)
	if st := cl.Servers[id].Store().Set(p, key, itValue, bad, 0, 0); st != protocol.StatusStored {
		t.Errorf("direct corrupting set on server %d: %v", id, st)
	}
	if !cl.Replicators[id].SilentlyCorruptForTest(key, protocol.ValueSum(bad)) {
		t.Errorf("corruption hook found no confirmed record of %q on server %d", key, id)
	}
}

// Corrupting the NON-coordinator: the scrub must detect the divergence and
// the coordinator's clean copy must win — the loser ends up holding the
// original bytes again, on both the store and the epoch record.
func TestScrubRepairsSameEpochContentDivergence(t *testing.T) {
	cl := itCluster()
	key := "diverge:loser"

	sim.Drive(t, cl.Env, "it-diverge", func(p *sim.Proc) {
		coord, other, goodSum, ok := divergeSetup(t, p, cl, key)
		if !ok {
			return
		}
		corruptApplied(t, p, cl, other, key)
		p.Sleep(30 * sim.Millisecond)
		for _, id := range []int{coord, other} {
			v, _, _, okR := cl.Servers[id].Store().ReadItem(p, protocol.KeyOf(key))
			if !okR {
				t.Errorf("replica %d lost %q during repair", id, key)
				continue
			}
			if seq, _ := v.(uint64); seq != 1 {
				t.Errorf("replica %d holds %v, want the coordinator's seq 1", id, v)
			}
			if _, sum, okS := cl.Replicators[id].AppliedStateForTest(key); !okS || sum != goodSum {
				t.Errorf("replica %d records sum %#x (ok=%v), want the clean %#x", id, sum, okS, goodSum)
			}
		}
	})

	total := cl.ReplicationCounters()
	if total.Val(metrics.CScrubCorruptionsFound) == 0 {
		t.Error("same-epoch divergence never detected: the content fold is dead")
	}
	if total.Val(metrics.CScrubCorruptionsRepaired) == 0 {
		t.Error("detected divergence never repaired")
	}
}

// Corrupting the COORDINATOR: with R=2 there is no quorum to vote with, so
// the rule is deterministic, not clairvoyant — the epoch's coordinator
// keeps its copy and the other member converges onto it. Both ends must
// agree afterwards (no push-pull oscillation), and the repair is still
// found and counted.
func TestScrubCoordinatorWinsSameEpochDivergence(t *testing.T) {
	cl := itCluster()
	key := "diverge:coord"
	badSum := protocol.ValueSum(uint64(999))

	sim.Drive(t, cl.Env, "it-diverge", func(p *sim.Proc) {
		coord, other, _, ok := divergeSetup(t, p, cl, key)
		if !ok {
			return
		}
		corruptApplied(t, p, cl, coord, key)
		p.Sleep(30 * sim.Millisecond)
		for _, id := range []int{coord, other} {
			v, _, _, okR := cl.Servers[id].Store().ReadItem(p, protocol.KeyOf(key))
			if !okR {
				t.Errorf("replica %d lost %q during repair", id, key)
				continue
			}
			if seq, _ := v.(uint64); seq != 999 {
				t.Errorf("replica %d holds %v, want the coordinator's (corrupt) 999", id, v)
			}
			if _, sum, okS := cl.Replicators[id].AppliedStateForTest(key); !okS || sum != badSum {
				t.Errorf("replica %d records sum %#x (ok=%v), want the coordinator's %#x", id, sum, okS, badSum)
			}
		}
	})

	total := cl.ReplicationCounters()
	if total.Val(metrics.CScrubCorruptionsFound) == 0 {
		t.Error("same-epoch divergence never detected")
	}
	if total.Val(metrics.CScrubCorruptionsRepaired) == 0 {
		t.Error("the non-coordinator never took the coordinator's copy")
	}
}
