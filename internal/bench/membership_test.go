package bench

import (
	"testing"

	"hybridkv/internal/metrics"
	"hybridkv/internal/sim"
)

// The membership headline: the full churn schedule — two joins, a
// kill-during-migration, a decommission — under link faults loses zero
// acked writes and produces zero history violations, with the checker
// enforcing its rules straight through every rebalance window (rebalance
// windows excuse nothing).
func TestMembershipChurnZeroLoss(t *testing.T) {
	rep := runCell(t, churnCell(40, 42, memChaosLimit))
	if n := rep.val("rebalances"); n != 3 {
		t.Errorf("drove %v rebalances, want 3", n)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.LostAcked != 0 {
		t.Errorf("lost %d of %d acked keys across the churn", rep.LostAcked, rep.AckedKeys)
	}
	if rep.AckedKeys == 0 {
		t.Error("durability oracle had no subjects")
	}
	if rep.Repl.Val(metrics.CMigrateSeals) == 0 {
		t.Error("no segment was ever sealed — migration never ran")
	}
	if rep.Repl.Val(metrics.CMigrateManifests) == 0 {
		t.Error("no migration manifest was ever exchanged")
	}
	if rep.Clients.Val(metrics.CRetiredConns) == 0 {
		t.Error("decommission never retired the client's conn state")
	}
	if rep.Clients.Val(metrics.CEpochInvalidations) == 0 {
		t.Error("no membership epoch bump ever invalidated client placement state")
	}
}

// Membership churn runs are deterministic: same rounds, same seed, same
// virtual outcome.
func TestMembershipChurnDeterminism(t *testing.T) {
	a := runCell(t, churnCell(24, 7, memChaosLimit))
	b := runCell(t, churnCell(24, 7, memChaosLimit))
	if len(a.Log.Entries) != len(b.Log.Entries) || a.LostAcked != b.LostAcked ||
		len(a.Violations) != len(b.Violations) ||
		a.Repl.Val(metrics.CMigrateKeysMoved) != b.Repl.Val(metrics.CMigrateKeysMoved) {
		t.Errorf("churn run not deterministic: (%d,%d,%d,%d) vs (%d,%d,%d,%d)",
			len(a.Log.Entries), a.LostAcked, len(a.Violations), a.Repl.Val(metrics.CMigrateKeysMoved),
			len(b.Log.Entries), b.LostAcked, len(b.Violations), b.Repl.Val(metrics.CMigrateKeysMoved))
	}
}

// The scaling claim at bench scale: adding servers adds goodput. One small
// cell pair keeps the tier-1 suite fast; the committed BENCH_membership.json
// snapshot pins the full 3→9 sweep.
func TestMembershipScaleGrowsWithServers(t *testing.T) {
	small := runCell(t, scaleCell(3, 2, 1200)).val("kops")
	large := runCell(t, scaleCell(9, 2, 1200)).val("kops")
	if large <= small {
		t.Errorf("9-server goodput %.1f kops not above 3-server %.1f kops", large, small)
	}
}

// The churn schedule's verdict is taken at its run limit: a limit inside
// join #1 (it starts 2 ms in and finalizes about 0.5 ms later) leaves that
// rebalance open in the log, and the checker reports exactly one
// rebalance-stuck. When a window was logged only once its rebalance
// finalized, a rebalance that never did left no trace, and this reported 0.
func TestChurnRebalanceOpenAtLimitIsStuck(t *testing.T) {
	rep := runCell(t, churnCell(8, 42, 2*sim.Millisecond+250*sim.Microsecond))
	stuck := 0
	for _, v := range rep.Violations {
		if v.Rule == "rebalance-stuck" {
			stuck++
		}
	}
	if stuck != 1 {
		t.Errorf("%d rebalance-stuck violations with the limit inside join #1, want 1: %v", stuck, rep.Violations)
	}
}
