package bench

import "testing"

// TestBypassExperimentShape runs the bypass experiment and checks the
// claims the cells exist to make: on read-heavy zipf the bypass path beats
// the RPC path on both mean hit latency and aggregate throughput, every
// in-RAM cell serves without misses, and the SSD-overcommit cell actually
// exercises the fallback path (and still serves correctly).
func TestBypassExperimentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("bypass experiment is slow")
	}
	r := runExp(t, "bypass", Options{Ops: 4800})

	if v := r.Metrics["speedup.read.zipf.get_us"]; v <= 1 {
		t.Errorf("bypass hit latency not better than RPC: speedup %.2f", v)
	}
	if v := r.Metrics["speedup.read.zipf.kops"]; v <= 1 {
		t.Errorf("bypass throughput not better than RPC: speedup %.2f", v)
	}
	for _, cell := range []string{
		"rpc.read.zipf", "bypass.read.zipf", "rpc.r95.zipf", "bypass.r95.zipf",
		"rpc.rw50.zipf", "bypass.rw50.zipf", "rpc.read.unif", "bypass.read.unif",
		"rpc.read.ssd", "bypass.read.ssd",
	} {
		if v := r.Metrics[cell+".misses"]; v != 0 {
			t.Errorf("%s: %v misses on a fully-preloaded keyspace", cell, v)
		}
	}
	if v := r.Metrics["bypass.read.zipf.hits"]; v == 0 {
		t.Error("zipf cell resolved nothing via bypass")
	}
	if v := r.Metrics["bypass.read.zipf.fastpath_pct"]; v <= 0 {
		t.Error("zipf cell resolved no hit in one READ")
	}
	// Half the SSD cell's dataset is flash-resident: probes must see the
	// SSD flag and fall back far more often than the in-RAM cells do.
	ssd, ram := r.Metrics["bypass.read.ssd.fallback_pct"], r.Metrics["bypass.read.zipf.fallback_pct"]
	if ssd <= ram {
		t.Errorf("SSD-overcommit fallback%% (%.1f) not above in-RAM (%.1f)", ssd, ram)
	}
}
