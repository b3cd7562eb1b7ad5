package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// The committed BENCH_*.json snapshots at the repo root are the perf
// trajectory other sessions diff against; a malformed or gutted snapshot
// silently breaks that. This test pins the contract: every snapshot parses
// as a non-empty []MetricRecord, each record names its experiment and
// metric, and per experiment the headline metric keys that acceptance
// checks read are present.

// snapshotExpectations maps each experiment id to metric keys its snapshot
// must carry. Keys are matched against Metric with the Design prefix
// re-attached when Records split one off.
var snapshotExpectations = map[string][]string{
	"batching":    {"H-RDMA-Def.uniform.50:50.b1.ops_s"},
	"overload":    {"H-RDMA-Def.off_p99_us", "H-RDMA-Def.on_get_p99_us"},
	"chaos":       {"H-RDMA-Def.violations"},
	"recovery":    {"H-RDMA-Def.uniform.items_recovered", "H-RDMA-Def.uniform.pages_torn"},
	"replication": {"R3.rw50.lost_acked", "R1.rw50.lost_acked", "R3.rw50.goodput_ops"},
	"bypass": {
		"bypass.rw50.zipf.fallback_pct", "bypass.read.zipf.kops",
		"speedup.read.zipf.kops",
		// ROADMAP item 3's two axes, on every bypass-path cell.
		"bypass.read.zipf.reads_per_hit", "bypass.read.zipf.read_bytes_per_hit",
		"bypass.r95.zipf.reads_per_hit", "bypass.r95.zipf.read_bytes_per_hit",
		"bypass.rw50.zipf.reads_per_hit", "bypass.rw50.zipf.read_bytes_per_hit",
		"bypass.read.unif.reads_per_hit", "bypass.read.unif.read_bytes_per_hit",
		"bypass.read.ssd.reads_per_hit", "bypass.read.ssd.read_bytes_per_hit",
	},
	"hotkey": {
		"fanout_speedup_r3", "fanout.R3.goodput_kops", "bypass.R3.goodput_kops",
		"chaos.violations", "fanout.R3.fanouts",
		"bypass.R3.reads_per_hit", "fanout.R3.read_bytes_per_hit",
	},
	"membership": {
		"chaos.lost_acked", "chaos.moved_keys", "chaos.violations",
		"chaos.rebalances", "scale.R2.N3.kops", "scale.R2.N9.kops",
		"scale.R2.monotonic",
	},
	"grayfail": {
		"healthy.get_p99_us", "nodefense.get_p99_us",
		"brownout+pacing.get_p99_us", "brownout+pacing.violations",
		"crash.violations", "crash.failovers", "p99_bound_ok",
	},
	"bitrot": {
		"R1.nodefense.corrupt_reads", "R2.verify+scrub.corrupt_reads",
		"R2.verify+scrub.lost_acked", "R2.verify+scrub.quarantined",
		"R2.verify+scrub.quarantine_reclaims", "nodefense_surfaces",
		"defense_holds", "replay_identical",
	},
}

func TestCommittedSnapshotsParse(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Skip("no committed BENCH_*.json snapshots")
	}
	for _, path := range paths {
		base := filepath.Base(path)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var recs []MetricRecord
		if err := json.Unmarshal(data, &recs); err != nil {
			t.Errorf("%s: not a MetricRecord array: %v", base, err)
			continue
		}
		if len(recs) == 0 {
			t.Errorf("%s: empty snapshot", base)
			continue
		}
		// Collect this file's experiments and fully-qualified metric keys.
		exps := map[string]bool{}
		keys := map[string]bool{}
		for i, r := range recs {
			if r.Experiment == "" || r.Metric == "" {
				t.Errorf("%s[%d]: record missing experiment or metric: %+v", base, i, r)
				continue
			}
			exps[r.Experiment] = true
			full := r.Metric
			if r.Design != "" {
				full = r.Design + "." + r.Metric
			}
			keys[r.Experiment+"/"+full] = true
		}
		// Expectations apply only to experiments this snapshot holds.
		for exp, want := range snapshotExpectations {
			if !exps[exp] {
				continue
			}
			for _, k := range want {
				if !keys[exp+"/"+k] {
					t.Errorf("%s: experiment %s missing expected metric %q", base, exp, k)
				}
			}
		}
	}
}
