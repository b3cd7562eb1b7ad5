package bench

import "testing"

// TestBitrotExperimentShape runs the bitrot matrix and checks the claims
// its cells exist to make: the undefended baseline really serves rotted
// bytes (the threat is live, not hypothetical); every defended cell serves
// zero corrupt reads and, wherever a replica exists, loses zero acked
// writes; detection actually fires and quarantines; only the scrub cells
// drain their quarantine back to the free pool; and the whole faulted run
// replays bit-for-bit under the same seed.
func TestBitrotExperimentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("bitrot experiment is slow")
	}
	r := runExp(t, "bitrot", Options{Ops: 300})

	if v := metric(t, r, "nodefense_surfaces"); v != 1 {
		t.Error("no nodefense cell ever served a corrupt read: the injection is dead")
	}
	if v := metric(t, r, "defense_holds"); v != 1 {
		t.Error("a defended cell served a corrupt read or lost an acked write at R≥2")
	}
	if v := metric(t, r, "replay_identical"); v != 1 {
		t.Error("the same seed did not replay the faulted run identically")
	}
	if v := metric(t, r, "R2.verify.detected_corrupt"); v == 0 {
		t.Error("R2 verify cell never detected a rotted read: verification is dead")
	}
	if v := metric(t, r, "R2.verify+scrub.quarantined"); v == 0 {
		t.Error("R2 verify+scrub cell never quarantined a region")
	}
	// Only the scrub drains quarantine; verify-only must hold its regions.
	if q, rec := metric(t, r, "R2.verify+scrub.quarantined"), metric(t, r, "R2.verify+scrub.quarantine_reclaims"); rec != q {
		t.Errorf("scrub cell reclaimed %v of %v quarantined regions, want all", rec, q)
	}
	if v := metric(t, r, "R2.verify.quarantine_reclaims"); v != 0 {
		t.Errorf("verify-only cell reclaimed %v regions with no scrub to drain them", v)
	}
	// R=1 honesty: rot-destroyed keys surface as misses, never as garbage.
	if v := metric(t, r, "R1.verify.corrupt_reads"); v != 0 {
		t.Errorf("R1 verify cell served %v corrupt reads", v)
	}
	if v := metric(t, r, "R1.verify.misses"); v == 0 {
		t.Error("R1 verify cell shows no misses: rot-destroyed keys went somewhere")
	}
}
