package bench

import (
	"strings"
	"testing"

	"hybridkv/internal/cluster"
)

// The experiment tests lock the paper's result *shapes*: orderings,
// crossovers, and improvement-factor bands. They run the scaled geometry
// with a reduced op count to stay fast; the bands are deliberately wider
// than the headline numbers to keep the assertions about shape, not noise.

func TestFig1aShape(t *testing.T) {
	r := runExp(t, "fig1a", quick())
	ipoib := r.Metrics["IPoIB-Mem.avg_us"]
	rdma := r.Metrics["RDMA-Mem.avg_us"]
	hyb := r.Metrics["H-RDMA-Def.avg_us"]
	if ratio := ipoib / rdma; ratio < 2.5 || ratio > 6 {
		t.Errorf("IPoIB/RDMA ratio %.2f, want ≈3.6 (band [2.5,6])", ratio)
	}
	// When data fits, the hybrid design matches the in-memory design.
	if diff := hyb/rdma - 1; diff > 0.1 || diff < -0.1 {
		t.Errorf("H-RDMA-Def (%.1fµs) not ≈ RDMA-Mem (%.1fµs) when data fits", hyb, rdma)
	}
}

func TestFig1bShape(t *testing.T) {
	r := runExp(t, "fig1b", quick())
	ipoib := r.Metrics["IPoIB-Mem.avg_us"]
	rdma := r.Metrics["RDMA-Mem.avg_us"]
	hyb := r.Metrics["H-RDMA-Def.avg_us"]
	// Hybrid memory dwarfs the in-memory designs once misses cost ~1.8 ms.
	if rdma/hyb < 2 {
		t.Errorf("hybrid (%.1fµs) not ≥2x better than RDMA-Mem (%.1fµs) under overcommit", hyb, rdma)
	}
	if ipoib < rdma {
		t.Errorf("IPoIB (%.1fµs) beat RDMA (%.1fµs)", ipoib, rdma)
	}
	// And the hybrid itself degrades vs. its fits-in-memory latency.
	fits := runExp(t, "fig1a", quick()).Metrics["H-RDMA-Def.avg_us"]
	if hyb/fits < 1.5 {
		t.Errorf("H-RDMA-Def degradation %.2fx, want ≥1.5x (paper: 15-17x; see EXPERIMENTS.md)", hyb/fits)
	}
}

func TestFig2Breakdown(t *testing.T) {
	a := runExp(t, "fig2a", quick())
	// Data fits: client wait dominates the RDMA designs (network-bound).
	if a.Metrics["RDMA-Mem.client_wait_us"] < a.Metrics["RDMA-Mem.slab_alloc_us"] {
		t.Errorf("fits-in-memory: client wait does not dominate slab alloc")
	}
	b := runExp(t, "fig2b", quick())
	// Data does not fit: the miss penalty dominates in-memory designs...
	if b.Metrics["RDMA-Mem.miss_penalty_us"] < b.Metrics["RDMA-Mem.client_wait_us"] {
		t.Errorf("overcommit: miss penalty does not dominate RDMA-Mem")
	}
	// ...while H-RDMA-Def pays in SSD I/O, not misses.
	if b.Metrics["H-RDMA-Def.miss_penalty_us"] != 0 {
		t.Errorf("hybrid design paid a miss penalty")
	}
	if b.Metrics["H-RDMA-Def.cache_load_us"] <= a.Metrics["H-RDMA-Def.cache_load_us"] {
		t.Errorf("hybrid SSD load stage did not grow under overcommit")
	}
}

func TestFig4Crossover(t *testing.T) {
	r := runExp(t, "fig4", quick())
	if r.Metrics["crossover.small_mmap_wins"] != 1 {
		t.Errorf("mmap does not win small writes")
	}
	if r.Metrics["crossover.large_cached_wins"] != 1 {
		t.Errorf("cached I/O does not win large writes")
	}
	for _, size := range []string{"2KB", "32KB", "1024KB"} {
		if r.Metrics["direct."+size+"_us"] <= r.Metrics["cached."+size+"_us"] {
			t.Errorf("direct I/O not worst at %s", size)
		}
	}
}

func TestFig6bImprovementBands(t *testing.T) {
	r := runExp(t, "fig6b", quick())
	check := func(key string, lo, hi float64) {
		v := r.Metrics[key]
		if v < lo || v > hi {
			t.Errorf("%s = %.2f, want within [%.1f,%.1f]", key, v, lo, hi)
		}
	}
	// Paper: NonB 10-16x over Def; 3.3-8x over Opt-Block; Opt-Block ≈2x
	// over Def. Bands widened ~40% for the reduced-op run.
	check("improvement.nonb_i_vs_def", 7, 25)
	check("improvement.nonb_i_vs_optblock", 2.5, 11)
	check("improvement.optblock_vs_def", 1.4, 4)
	// Ordering is strict.
	if !(r.Metrics["H-RDMA-Opt-NonB-i.avg_us"] < r.Metrics["H-RDMA-Opt-Block.avg_us"] &&
		r.Metrics["H-RDMA-Opt-Block.avg_us"] < r.Metrics["H-RDMA-Def.avg_us"]) {
		t.Errorf("design ordering violated: NonB=%.1f Opt=%.1f Def=%.1f",
			r.Metrics["H-RDMA-Opt-NonB-i.avg_us"],
			r.Metrics["H-RDMA-Opt-Block.avg_us"],
			r.Metrics["H-RDMA-Def.avg_us"])
	}
}

func TestFig7aOverlapShape(t *testing.T) {
	r := runExp(t, "fig7a", quick())
	if v := r.Metrics["RDMA-Block.read-only.overlap_pct"]; v > 5 {
		t.Errorf("blocking API overlap %.1f%%, want ≈0", v)
	}
	if v := r.Metrics["RDMA-NonB-i.read-only.overlap_pct"]; v < 70 {
		t.Errorf("iget read-only overlap %.1f%%, want ≥70 (paper ≈92)", v)
	}
	if v := r.Metrics["RDMA-NonB-i.write-heavy.overlap_pct"]; v < 70 {
		t.Errorf("iset write-heavy overlap %.1f%%, want ≥70 (paper ≈92)", v)
	}
	// The paper's asymmetry: bset write-heavy collapses; bget read-only
	// stays high.
	if v := r.Metrics["RDMA-NonB-b.write-heavy.overlap_pct"]; v > 25 {
		t.Errorf("bset write-heavy overlap %.1f%%, want <25 (paper <12)", v)
	}
	ro := r.Metrics["RDMA-NonB-b.read-only.overlap_pct"]
	wh := r.Metrics["RDMA-NonB-b.write-heavy.overlap_pct"]
	if ro < 3*wh {
		t.Errorf("bget read-only (%.1f%%) not ≫ bset write-heavy (%.1f%%)", ro, wh)
	}
}

func TestFig8aSATABenefitsExceedNVMe(t *testing.T) {
	r := runExp(t, "fig8a", quick())
	sata := r.Metrics["improvement_pct.opt_vs_def.SATA.write-heavy"]
	nvme := r.Metrics["improvement_pct.opt_vs_def.NVMe.write-heavy"]
	if sata <= nvme {
		t.Errorf("adaptive I/O gain on SATA (%.1f%%) not above NVMe (%.1f%%)", sata, nvme)
	}
	if sata < 40 {
		t.Errorf("SATA write-heavy Opt-vs-Def gain %.1f%%, want ≥40 (paper 54-83)", sata)
	}
	for _, mix := range []string{"read-only", "write-heavy"} {
		if v := r.Metrics["improvement_pct.nonb_i_vs_def.SATA."+mix]; v < 48 {
			t.Errorf("NonB SATA %s gain %.1f%%, want ≥48", mix, v)
		}
	}
}

// TestFig8bImprovementBands locks Fig. 8(b)'s shape: the non-blocking
// design beats Opt-Block on block write, read and access latency on both
// drives at both block sizes, and a 16 MB block gains at least as much
// access latency as a 2 MB one (the paper: 79-85 %, growing with block
// size). The experiment's byte counts ignore Ops, so this is the registry
// run itself.
func TestFig8bImprovementBands(t *testing.T) {
	r := runExp(t, "fig8b", quick())
	for _, ssd := range []string{"SATA", "NVMe"} {
		for _, mb := range []string{"2MB", "16MB"} {
			for _, kind := range []string{"write", "read", "access"} {
				key := "improvement_pct." + kind + "." + ssd + "." + mb
				if v, ok := r.Metrics[key]; !ok || v <= 0 {
					t.Errorf("%s = %.1f%% (present %v): NonB-i does not beat Opt-Block", key, v, ok)
				}
			}
		}
		small, large := r.Metrics["improvement_pct.access."+ssd+".2MB"], r.Metrics["improvement_pct.access."+ssd+".16MB"]
		if large < small {
			t.Errorf("%s access gain %.1f%% at 16 MB, below %.1f%% at 2 MB", ssd, large, small)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"tbl1", "fig1a", "fig1b", "fig2a", "fig2b", "fig4", "fig6a", "fig6b", "fig7a", "fig7b", "fig7c", "fig8a", "fig8b", "faults", "batching", "recovery", "overload", "chaos", "replication", "bypass", "hotkey", "membership", "grayfail", "bitrot"}
	if len(Registry) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(Registry), len(want))
	}
	for i, id := range want {
		if Registry[i].ID != id {
			t.Errorf("registry[%d] = %s, want %s", i, Registry[i].ID, id)
		}
		if ByID(id) == nil {
			t.Errorf("ByID(%s) = nil", id)
		}
	}
	if ByID("nope") != nil {
		t.Errorf("ByID(nope) found something")
	}
}

func TestAblationRegistry(t *testing.T) {
	for _, e := range Ablations {
		if ByID(e.ID) == nil {
			t.Errorf("ByID(%s) = nil", e.ID)
		}
		if !strings.HasPrefix(e.ID, "abl-") {
			t.Errorf("ablation id %q not namespaced", e.ID)
		}
	}
	if ByID("abl-nope") != nil {
		t.Errorf("ByID(abl-nope) found something")
	}
}

func TestResultRendering(t *testing.T) {
	r := &Result{Metrics: map[string]float64{"b.key": 2, "a.key": 1}}
	out := r.renderMetrics()
	ai, bi := strings.Index(out, "a.key"), strings.Index(out, "b.key")
	if ai < 0 || bi < 0 || ai > bi {
		t.Errorf("metrics not rendered sorted:\n%s", out)
	}
}

func TestDriversProduceConsistentCounts(t *testing.T) {
	// A tiny end-to-end sanity pass over the blocking driver.
	sp := paperSpec(cluster.RDMAMem, cluster.ClusterA(), 32<<20, 16<<20, 32*1024)
	r := runCell(t, cell{spec: sp, drive: sp.closed(zipf(0.5, 5), 200)})
	if r.Ops != 200 || r.Lat.Count() != 200 {
		t.Errorf("blocking driver ops=%d samples=%d", r.Ops, r.Lat.Count())
	}
	if r.SetLat.Count()+r.GetLat.Count() != 200 {
		t.Errorf("set+get samples %d+%d != 200", r.SetLat.Count(), r.GetLat.Count())
	}
}

func TestNonBlockingDriverCounts(t *testing.T) {
	sp := paperSpec(cluster.HRDMAOptNonBI, cluster.ClusterA(), 32<<20, 16<<20, 32*1024)
	r := runCell(t, cell{spec: sp, drive: sp.closed(zipf(0.5, 5), 200)})
	if r.Ops != 200 || r.Misses != 0 {
		t.Errorf("nonblocking driver ops=%d misses=%d", r.Ops, r.Misses)
	}
	if r.PerOp <= 0 || r.Elapsed <= 0 {
		t.Errorf("per-op %v elapsed %v", r.PerOp, r.Elapsed)
	}
	if r.Stall <= 0 || r.Stall > r.Elapsed {
		t.Errorf("issue time %v outside (0,%v]", r.Stall, r.Elapsed)
	}
}

// TestEndToEndDeterminism locks the simulation's headline guarantee: an
// entire experiment — fabric, servers, SSDs, page caches, eviction, client
// pipelines — produces bit-identical metrics on every run.
func TestEndToEndDeterminism(t *testing.T) {
	a := runExp(t, "fig1b", Options{Ops: 600}).Metrics
	b := freshExp(t, "fig1b", Options{Ops: 600}).Metrics
	if len(a) != len(b) {
		t.Fatalf("metric sets differ in size: %d vs %d", len(a), len(b))
	}
	for k, va := range a {
		if vb, ok := b[k]; !ok || va != vb {
			t.Errorf("metric %s differs across runs: %v vs %v", k, va, vb)
		}
	}
}

func TestNonBlockingDeterminism(t *testing.T) {
	const key = "H-RDMA-Opt-NonB-i.avg_us"
	o := Options{Ops: 400}
	if a, b := runExp(t, "fig6b", o).Metrics[key], freshExp(t, "fig6b", o).Metrics[key]; a != b {
		t.Errorf("async-pipeline experiment diverged: %v vs %v", a, b)
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	r := runExp(t, "tbl1", Options{})
	// Table I's rows, straight from the paper.
	checks := map[string]float64{
		"IPoIB-Mem.rdma":                0,
		"IPoIB-Mem.hybrid":              0,
		"RDMA-Mem.rdma":                 1,
		"RDMA-Mem.hybrid":               0,
		"H-RDMA-Def.rdma":               1,
		"H-RDMA-Def.hybrid":             1,
		"H-RDMA-Def.adaptive":           0,
		"H-RDMA-Def.nonblocking":        0,
		"H-RDMA-Opt-NonB-i.adaptive":    1,
		"H-RDMA-Opt-NonB-i.nonblocking": 1,
	}
	for k, want := range checks {
		if got := r.Metrics[k]; got != want {
			t.Errorf("%s = %v, want %v", k, got, want)
		}
	}
	if !strings.Contains(r.Output, "IPoIB-Mem") {
		t.Errorf("table output missing rows:\n%s", r.Output)
	}
}

func TestResultCSVExport(t *testing.T) {
	r := runExp(t, "fig4", Options{})
	var sb strings.Builder
	if err := r.WriteCSV(&sb); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"label,direct µs,cached µs,mmap µs", "2KB,", "1024KB,"} {
		if !strings.Contains(out, want) {
			t.Errorf("CSV missing %q:\n%s", want, out)
		}
	}
	if len(r.tables) == 0 {
		t.Errorf("result retained no tables")
	}
}
