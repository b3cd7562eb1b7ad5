package bench

import (
	"testing"
)

// The membership headline: the full churn schedule — two joins, a
// kill-during-migration, a decommission — under link faults loses zero
// acked writes and produces zero history violations, with the checker
// enforcing its rules straight through every rebalance window (rebalance
// windows excuse nothing).
func TestMembershipChurnZeroLoss(t *testing.T) {
	rep := runCell(t, churnCell(40, 42))
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
	if rep.Repl.Get("migrate-seals") == 0 {
		t.Error("no segment was ever sealed — migration never ran")
	}
	if rep.Repl.Get("migrate-manifests") == 0 {
		t.Error("no migration manifest was ever exchanged")
	}
	if rep.Faults.Get("retired-conns") == 0 {
		t.Error("decommission never retired the client's conn state")
	}
	if rep.Faults.Get("epoch-invalidations") == 0 {
		t.Error("no membership epoch bump ever invalidated client placement state")
	}
}

// Membership churn runs are deterministic: same rounds, same seed, same
// virtual outcome.
func TestMembershipChurnDeterminism(t *testing.T) {
	a := runCell(t, churnCell(24, 7))
	b := runCell(t, churnCell(24, 7))
	if len(a.Log.Entries) != len(b.Log.Entries) || a.LostAcked != b.LostAcked ||
		len(a.Violations) != len(b.Violations) ||
		a.Repl.Get("migrate-keys-moved") != b.Repl.Get("migrate-keys-moved") {
		t.Errorf("churn run not deterministic: (%d,%d,%d,%d) vs (%d,%d,%d,%d)",
			len(a.Log.Entries), a.LostAcked, len(a.Violations), a.Repl.Get("migrate-keys-moved"),
			len(b.Log.Entries), b.LostAcked, len(b.Violations), b.Repl.Get("migrate-keys-moved"))
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
