package bench

import (
	"testing"

	"hybridkv/internal/cluster"
)

// TestRecoveryExperimentShape runs the recovery experiment at quick scale
// and checks its crash-consistency invariants for every cell: zero corrupt
// reads under torn writes, no failed guarded ops, a consistent scan report,
// and a post-recovery hit ratio that reflects (only) the lost RAM contents.
func TestRecoveryExperimentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("recovery experiment is slow")
	}
	r := runExp(t, "recovery", quick())
	designs := []cluster.Design{
		cluster.HRDMADef, cluster.HRDMAOptBlock,
		cluster.HRDMAOptNonBB, cluster.HRDMAOptNonBI,
	}
	for _, d := range designs {
		for _, pat := range []string{"uniform", "zipf"} {
			name := d.String() + "." + pat
			if v := metric(t, r, name+".corrupt_reads"); v != 0 {
				t.Errorf("%s: %v corrupt reads", name, v)
			}
			if v := metric(t, r, name+".failed"); v != 0 {
				t.Errorf("%s: %v guarded ops failed across the outage", name, v)
			}
			if metric(t, r, name+".recovery_ms") <= 0 {
				t.Errorf("%s: no recovery time recorded", name)
			}
			scanned := metric(t, r, name+".pages_scanned")
			if scanned == 0 {
				t.Errorf("%s: recovery scanned nothing", name)
			}
			if got := metric(t, r, name+".pages_recovered") + metric(t, r, name+".pages_discarded"); got != scanned {
				t.Errorf("%s: recovered+discarded = %v, scanned = %v", name, got, scanned)
			}
			if metric(t, r, name+".items_recovered") == 0 {
				t.Errorf("%s: nothing recovered from the SSD", name)
			}
			if metric(t, r, name+".rejected") == 0 {
				t.Errorf("%s: no request was rejected during the outage", name)
			}
			clean, post := metric(t, r, name+".clean_hit_ratio"), metric(t, r, name+".post_hit_ratio")
			if post <= 0 || post >= clean {
				t.Errorf("%s: post-crash hit ratio %v vs clean %v, want 0 < post < clean",
					name, post, clean)
			}
		}
	}
	if r.Output == "" {
		t.Error("no output table")
	}
}
