package bench

import (
	"testing"

	"hybridkv/internal/metrics"
)

// The acceptance gate for attaching replication at all: a run at R=1 (no
// replicators built, no client replica routing) must be virtual-time
// IDENTICAL to the plain pre-replication driver (ReplicationFactor 0) —
// same final clock, same outcome counts. Every replication hook in the
// server and client is gated on attachment, so an unreplicated deployment
// pays nothing, not even a branch that changes event ordering.
func TestReplicationR1VirtualTimeIdentity(t *testing.T) {
	a := runCell(t, replicationCell(0, 0.5, 200, false))
	b := runCell(t, replicationCell(1, 0.5, 200, false))
	if a.Now != b.Now {
		t.Errorf("final virtual clock differs: R=0 %v vs R=1 %v", a.Now, b.Now)
	}
	if a.Elapsed != b.Elapsed {
		t.Errorf("driver elapsed differs: R=0 %v vs R=1 %v", a.Elapsed, b.Elapsed)
	}
	if a.OK != b.OK || a.Misses != b.Misses || a.Failed != b.Failed {
		t.Errorf("outcomes differ: R=0 (%d,%d,%d) vs R=1 (%d,%d,%d)",
			a.OK, a.Misses, a.Failed, b.OK, b.Misses, b.Failed)
	}
	if b.Repl != (metrics.Counters{}) {
		t.Errorf("R=1 run produced replication counters: %d forwards, %d repair pushes",
			b.Repl.Val(metrics.CForwards), b.Repl.Val(metrics.CRepairPushes))
	}
}

// The durability headline. R=1 through the kill schedule must lose acked
// writes (the second kill wipes a node's SSD — whatever it exclusively
// held is unrecoverable), and R=2 through the same schedule must lose
// none: every acked write was on both replicas before the ack, and the
// killed nodes re-fetch from the survivors.
func TestReplicationKillsDurability(t *testing.T) {
	solo := runCell(t, replicationCell(1, 0.5, 400, true))
	if solo.LostAcked == 0 {
		t.Error("R=1 lost nothing through a wiped-SSD node kill — the oracle is not observing the kills")
	}
	dup := runCell(t, replicationCell(2, 0.5, 400, true))
	if dup.LostAcked != 0 {
		t.Errorf("R=2 lost %d of %d acked keys — replication failed its guarantee",
			dup.LostAcked, dup.AckedKeys)
	}
	if dup.AckedKeys == 0 {
		t.Error("R=2 oracle had no subjects")
	}
	if dup.Repl.Val(metrics.CForwards) == 0 {
		t.Error("R=2 run never forwarded a write")
	}
	if dup.Repl.Val(metrics.CRepairPushes)+dup.Repl.Val(metrics.CRepairPulls) == 0 {
		t.Error("R=2 kills produced no repair traffic — suspect confirm and anti-entropy never ran")
	}
}

// Replication runs are deterministic: same cell, same virtual outcome.
func TestReplicationDeterminism(t *testing.T) {
	a := runCell(t, replicationCell(2, 0.5, 200, true))
	b := runCell(t, replicationCell(2, 0.5, 200, true))
	if a.Now != b.Now || a.OK != b.OK || a.Failed != b.Failed ||
		a.LostAcked != b.LostAcked {
		t.Errorf("replication run not deterministic: (%v,%d,%d,%d) vs (%v,%d,%d,%d)",
			a.Now, a.OK, a.Failed, a.LostAcked, b.Now, b.OK, b.Failed, b.LostAcked)
	}
}
