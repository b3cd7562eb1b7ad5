package bench

import "testing"

// TestBypassExperimentShape runs the bypass experiment and checks the
// claims the cells exist to make: on read-heavy zipf the bypass path beats
// the RPC path on both mean hit latency and aggregate throughput, every
// in-RAM cell serves without misses and almost never falls back (its 8 192
// keys fit the two-way directory's 32 768 buckets with few overflowing),
// and the SSD-overcommit cell actually exercises the fallback path (and
// still serves correctly).
func TestBypassExperimentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("bypass experiment is slow")
	}
	r := runExp(t, "bypass", Options{Ops: 4800})

	if v := metric(t, r, "speedup.read.zipf.get_us"); v <= 1 {
		t.Errorf("bypass hit latency not better than RPC: speedup %.2f", v)
	}
	if v := metric(t, r, "speedup.read.zipf.kops"); v <= 1 {
		t.Errorf("bypass throughput not better than RPC: speedup %.2f", v)
	}
	for _, cell := range []string{
		"rpc.read.zipf", "bypass.read.zipf", "rpc.r95.zipf", "bypass.r95.zipf",
		"rpc.rw50.zipf", "bypass.rw50.zipf", "rpc.read.unif", "bypass.read.unif",
		"rpc.read.ssd", "bypass.read.ssd",
	} {
		if v := metric(t, r, cell+".misses"); v != 0 {
			t.Errorf("%s: %v misses on a fully-preloaded keyspace", cell, v)
		}
	}
	if v := metric(t, r, "bypass.read.zipf.hits"); v == 0 {
		t.Error("zipf cell resolved nothing via bypass")
	}
	if v := metric(t, r, "bypass.read.zipf.fastpath_pct"); v <= 0 {
		t.Error("zipf cell resolved no hit in one READ")
	}
	// A direct-mapped directory fell back 11.5 / 10.7 / 6.2 / 4.7 % here.
	for _, cell := range []string{"read.zipf", "read.unif", "r95.zipf", "rw50.zipf"} {
		if v := metric(t, r, "bypass."+cell+".fallback_pct"); v >= 2 {
			t.Errorf("bypass.%s: %.1f%% of GETs fell back with every key in RAM, want < 2%%", cell, v)
		}
	}
	// Half the SSD cell's dataset is flash-resident: probes must see the
	// SSD flag and fall back far more often than the in-RAM cells do.
	ssd, ram := metric(t, r, "bypass.read.ssd.fallback_pct"), metric(t, r, "bypass.read.zipf.fallback_pct")
	if ssd <= ram {
		t.Errorf("SSD-overcommit fallback%% (%.1f) not above in-RAM (%.1f)", ssd, ram)
	}
}
