package hybridkv_test

// One testing.B benchmark per table/figure of the paper's evaluation
// (Section VI). Each benchmark executes the full experiment — build the
// simulated cluster(s), preload, run the measurement phase — once per
// iteration and reports the experiment's headline numbers as custom
// metrics. Latencies are *virtual* microseconds (sim-µs/op), throughput is
// virtual ops/second; ns/op only reflects host wall time to run the
// simulation.
//
//	go test -bench=. -benchmem
//	go test -bench=Fig6b -benchtime=1x

import (
	"testing"

	"hybridkv/internal/bench"
)

// runFigure executes the experiment once per b.N under o and reports the
// metrics whose keys appear in report (metric key → benchmark unit suffix).
func runFigure(b *testing.B, id string, o bench.Options, report map[string]string) {
	e := bench.ByID(id)
	if e == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	var r *bench.Result
	for i := 0; i < b.N; i++ {
		var err error
		if r, err = e.Run(o); err != nil {
			b.Fatal(err)
		}
	}
	for key, unit := range report {
		v, ok := r.Metrics[key]
		if !ok {
			b.Fatalf("experiment %s did not produce metric %q", id, key)
		}
		b.ReportMetric(v, unit)
	}
}

func BenchmarkFig1a(b *testing.B) {
	runFigure(b, "fig1a", bench.Options{}, map[string]string{
		"IPoIB-Mem.avg_us":    "ipoib-sim-µs/op",
		"RDMA-Mem.avg_us":     "rdma-sim-µs/op",
		"H-RDMA-Def.avg_us":   "hybrid-sim-µs/op",
		"ratio.ipoib_vs_rdma": "ipoib/rdma-x",
	})
}

func BenchmarkFig1b(b *testing.B) {
	runFigure(b, "fig1b", bench.Options{}, map[string]string{
		"IPoIB-Mem.avg_us":  "ipoib-sim-µs/op",
		"RDMA-Mem.avg_us":   "rdma-sim-µs/op",
		"H-RDMA-Def.avg_us": "hybrid-sim-µs/op",
	})
}

func BenchmarkFig2a(b *testing.B) {
	runFigure(b, "fig2a", bench.Options{}, map[string]string{
		"RDMA-Mem.client_wait_us": "cliwait-sim-µs/op",
		"RDMA-Mem.avg_us":         "rdma-sim-µs/op",
	})
}

func BenchmarkFig2b(b *testing.B) {
	runFigure(b, "fig2b", bench.Options{}, map[string]string{
		"RDMA-Mem.miss_penalty_us": "miss-sim-µs/op",
		"H-RDMA-Def.cache_load_us": "ssdload-sim-µs/op",
		"H-RDMA-Def.slab_alloc_us": "slaballoc-sim-µs/op",
	})
}

func BenchmarkFig4(b *testing.B) {
	runFigure(b, "fig4", bench.Options{}, map[string]string{
		"direct.32KB_us":   "direct32K-sim-µs",
		"cached.32KB_us":   "cached32K-sim-µs",
		"mmap.2KB_us":      "mmap2K-sim-µs",
		"cached.1024KB_us": "cached1M-sim-µs",
	})
}

func BenchmarkFig6a(b *testing.B) {
	runFigure(b, "fig6a", bench.Options{}, map[string]string{
		"H-RDMA-Opt-NonB-i.avg_us": "nonb-sim-µs/op",
		"RDMA-Mem.avg_us":          "rdmamem-sim-µs/op",
	})
}

func BenchmarkFig6b(b *testing.B) {
	runFigure(b, "fig6b", bench.Options{}, map[string]string{
		"improvement.nonb_i_vs_def":      "nonb/def-x",
		"improvement.nonb_i_vs_optblock": "nonb/opt-x",
		"improvement.optblock_vs_def":    "opt/def-x",
		"H-RDMA-Opt-NonB-i.avg_us":       "nonb-sim-µs/op",
	})
}

func BenchmarkFig7a(b *testing.B) {
	runFigure(b, "fig7a", bench.Options{}, map[string]string{
		"RDMA-NonB-i.read-only.overlap_pct":   "nonbI-ro-%",
		"RDMA-NonB-i.write-heavy.overlap_pct": "nonbI-wh-%",
		"RDMA-NonB-b.write-heavy.overlap_pct": "nonbB-wh-%",
	})
}

func BenchmarkFig7b(b *testing.B) {
	runFigure(b, "fig7b", bench.Options{}, map[string]string{
		"improvement_pct.nonb_i_vs_def.16KB": "improve16K-%",
		"improvement_pct.nonb_i_vs_def.64KB": "improve64K-%",
	})
}

func BenchmarkFig7c(b *testing.B) {
	runFigure(b, "fig7c", bench.Options{}, map[string]string{
		"speedup.nonb_i_vs_block":       "nonb/block-x",
		"speedup.optblock_vs_def":       "opt/def-x",
		"H-RDMA-Opt-NonB-i.ops_per_sec": "nonb-sim-ops/s",
		"H-RDMA-Opt-Block.ops_per_sec":  "opt-sim-ops/s",
	})
}

func BenchmarkFig8a(b *testing.B) {
	runFigure(b, "fig8a", bench.Options{}, map[string]string{
		"improvement_pct.opt_vs_def.SATA.write-heavy":    "optSATA-%",
		"improvement_pct.nonb_i_vs_def.SATA.write-heavy": "nonbSATA-%",
		"improvement_pct.opt_vs_def.NVMe.write-heavy":    "optNVMe-%",
	})
}

func BenchmarkFig8b(b *testing.B) {
	runFigure(b, "fig8b", bench.Options{}, map[string]string{
		"improvement_pct.access.SATA.2MB":  "accessSATA2M-%",
		"improvement_pct.access.SATA.16MB": "accessSATA16M-%",
		"improvement_pct.access.NVMe.16MB": "accessNVMe16M-%",
	})
}

// Ablation benches: the design-choice sweeps DESIGN.md calls out.

func runAblation(b *testing.B, id string, report map[string]string) {
	runFigure(b, id, bench.Options{Ops: 1200}, report)
}

func BenchmarkAblationZipf(b *testing.B) {
	runAblation(b, "abl-zipf", map[string]string{
		"s=0.20.nonb_vs_def": "s0.2-x",
		"s=0.99.nonb_vs_def": "s0.99-x",
	})
}

func BenchmarkAblationWorkers(b *testing.B) {
	runAblation(b, "abl-workers", map[string]string{
		"workers=1.per_op_us": "w1-sim-µs/op",
		"workers=4.per_op_us": "w4-sim-µs/op",
	})
}

func BenchmarkAblationBuffer(b *testing.B) {
	runAblation(b, "abl-buffer", map[string]string{
		"2KB.overlap_pct":   "bset2K-%",
		"128KB.overlap_pct": "bset128K-%",
	})
}

func BenchmarkAblationCutoff(b *testing.B) {
	runAblation(b, "abl-cutoff", map[string]string{
		"cutoff=0K.set_us":  "cut0-sim-µs/op",
		"cutoff=16K.set_us": "cut16K-sim-µs/op",
	})
}

func BenchmarkAblationWindow(b *testing.B) {
	runAblation(b, "abl-window", map[string]string{
		"window=1.ops_per_sec":  "win1-sim-ops/s",
		"window=64.ops_per_sec": "win64-sim-ops/s",
	})
}
