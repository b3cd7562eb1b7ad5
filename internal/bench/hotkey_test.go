package bench

import "testing"

// TestHotkeyExperimentShape runs the hotkey experiment and checks the claims
// its cells exist to make: with replicas to fan out over, the flash crowd's
// goodput beats the same deployment without fan-out (the celebrity's primary
// stops being the lone bottleneck); detection is live (samples fed the
// sketch, refreshes carried the set, fan-outs actually routed); and the
// replicated history checker finds zero violations under fan-out plus
// whole-node kills.
func TestHotkeyExperimentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("hotkey experiment is slow")
	}
	r := runExp(t, "hotkey", Options{Ops: 14400})

	if v := metric(t, r, "fanout_speedup_r3"); v < 1.5 {
		t.Errorf("R=3 fan-out goodput speedup %.2f, want ≥1.5", v)
	}
	if v := metric(t, r, "fanout.R3.fanouts"); v == 0 {
		t.Error("R=3 fan-out cell never fanned a GET out")
	}
	if v := metric(t, r, "fanout.R1.fanouts"); v != 0 {
		t.Errorf("R=1 cell fanned out %v GETs with nothing to fan to", v)
	}
	if v := metric(t, r, "fanout.R3.hot_samples"); v == 0 {
		t.Error("no RPC heat samples reached the server sketch")
	}
	if v := metric(t, r, "fanout.R3.hot_refreshes"); v == 0 {
		t.Error("clients never refreshed the hot set")
	}
	// The doorbell-batched read engine must coalesce: strictly fewer
	// doorbells than READs posted.
	if d, n := metric(t, r, "bypass.R3.read_doorbells"), metric(t, r, "bypass.R3.reads"); d >= n {
		t.Errorf("read engine never coalesced: %v doorbells for %v READs", d, n)
	}
	if v := metric(t, r, "chaos.violations"); v != 0 {
		t.Errorf("fan-out chaos cell recorded %v history violations, want 0", v)
	}
	if v := metric(t, r, "chaos.fanouts"); v == 0 {
		t.Error("chaos cell never fanned out: safety claim untested")
	}
}
