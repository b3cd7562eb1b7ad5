package bench

import (
	"testing"

	"hybridkv/internal/cluster"
	"hybridkv/internal/history"
)

// The chaos-soak CI gate: faults + crashes + overload on every hybrid
// design must produce a history with zero invariant violations — no acked
// write lost, no stale read after a completed CAS write, no invented
// values, no counter regression, and every issued operation completed
// (virtual time kept advancing; nothing deadlocked).
func TestChaosSoakZeroViolations(t *testing.T) {
	for _, d := range hybrids {
		rep := runCell(t, chaosCell(d, 24, 42, 0, false))
		for _, v := range rep.Violations {
			t.Errorf("%s: %s", d, v)
		}
		if len(rep.Log.Entries) != rep.Log.Expected {
			t.Errorf("%s: %d of %d expected entries recorded",
				d, len(rep.Log.Entries), rep.Log.Expected)
		}
		if rep.Recoveries == 0 {
			t.Errorf("%s: cold restart never recovered", d)
		}
		if rep.val("inj_drops") == 0 {
			t.Errorf("%s: fault injector dropped nothing — the soak ran clean", d)
		}
	}
}

// The soak genuinely exercises the acked-write path on the
// buffer-guaranteed design, and is deterministic replay for replay.
func TestChaosSoakAckedWritesAndDeterminism(t *testing.T) {
	r1 := runCell(t, chaosCell(cluster.HRDMAOptNonBB, 24, 42, 0, false))
	if r1.val("acked_writes") == 0 {
		t.Error("no acked writes logged: the acked-write-lost invariant was vacuous")
	}
	r2 := runCell(t, chaosCell(cluster.HRDMAOptNonBB, 24, 42, 0, false))
	if r1.Elapsed != r2.Elapsed || len(r1.Log.Entries) != len(r2.Log.Entries) ||
		r1.val("busy") != r2.val("busy") || r1.val("retries") != r2.val("retries") {
		t.Errorf("chaos soak not deterministic: (%v,%d,%v,%v) vs (%v,%d,%v,%v)",
			r1.Elapsed, len(r1.Log.Entries), r1.val("busy"), r1.val("retries"),
			r2.Elapsed, len(r2.Log.Entries), r2.val("busy"), r2.val("retries"))
	}
}

// The replicated soak: whole-node kills (RAM gone, then RAM + wiped SSD)
// at R=2 under the tightened Replicated checker — stale reads keep no
// crash excuse — must still produce zero violations, and repair traffic
// must actually flow (the kills force the suspect-confirm and anti-entropy
// machinery to do real work).
func TestChaosReplicatedNodeKillsZeroViolations(t *testing.T) {
	rep := runCell(t, chaosCell(cluster.HRDMAOptNonBB, 24, 42, 2, true))
	for _, v := range rep.Violations {
		t.Errorf("R=2 kills: %s", v)
	}
	if len(rep.Log.Entries) != rep.Log.Expected {
		t.Errorf("R=2 kills: %d of %d expected entries recorded",
			len(rep.Log.Entries), rep.Log.Expected)
	}
	if rep.val("acked_writes") == 0 {
		t.Error("R=2 kills: no acked writes logged — the invariant was vacuous")
	}
}

// The checker is not asleep: hand the soak's own machinery a log with a
// fabricated lost acked write and it must object.
func TestChaosCheckerStillArmed(t *testing.T) {
	l := &history.Log{}
	l.Record(history.Entry{Kind: history.Write, Key: "k", Seq: 1, Acked: true, OK: false})
	if len(l.Check()) == 0 {
		t.Fatal("checker accepted a lost acked write")
	}
}
