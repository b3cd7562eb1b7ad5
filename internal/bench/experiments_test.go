package bench

import (
	"strings"
	"testing"

	"hybridkv/internal/cluster"
)

// The shape tests lock what the claims table (claims_test.go) does not: the
// orderings and stage splits behind the paper's figures. They share the
// reduced-op runs of TestClaimsAtQuickScale (runExp at quick()).

// When data fits, the hybrid design matches the in-memory design.
func TestFig1aShape(t *testing.T) {
	r := runExp(t, "fig1a", quick())
	rdma, hyb := metric(t, r, "RDMA-Mem.avg_us"), metric(t, r, "H-RDMA-Def.avg_us")
	if diff := hyb/rdma - 1; diff > 0.1 || diff < -0.1 {
		t.Errorf("H-RDMA-Def (%.1fµs) not ≈ RDMA-Mem (%.1fµs) when data fits", hyb, rdma)
	}
}

// Under overcommit the kernel socket stack still costs more than RDMA.
func TestFig1bShape(t *testing.T) {
	r := runExp(t, "fig1b", quick())
	if ipoib, rdma := metric(t, r, "IPoIB-Mem.avg_us"), metric(t, r, "RDMA-Mem.avg_us"); ipoib < rdma {
		t.Errorf("IPoIB (%.1fµs) beat RDMA (%.1fµs)", ipoib, rdma)
	}
}

func TestFig2Breakdown(t *testing.T) {
	a := runExp(t, "fig2a", quick())
	// Data fits: client wait dominates the RDMA designs (network-bound).
	if metric(t, a, "RDMA-Mem.client_wait_us") < metric(t, a, "RDMA-Mem.slab_alloc_us") {
		t.Errorf("fits-in-memory: client wait does not dominate slab alloc")
	}
	b := runExp(t, "fig2b", quick())
	// Data does not fit: the miss penalty dominates in-memory designs...
	if metric(t, b, "RDMA-Mem.miss_penalty_us") < metric(t, b, "RDMA-Mem.client_wait_us") {
		t.Errorf("overcommit: miss penalty does not dominate RDMA-Mem")
	}
	// ...while H-RDMA-Def pays in SSD I/O, not misses.
	if metric(t, b, "H-RDMA-Def.miss_penalty_us") != 0 {
		t.Errorf("hybrid design paid a miss penalty")
	}
	if metric(t, b, "H-RDMA-Def.cache_load_us") <= metric(t, a, "H-RDMA-Def.cache_load_us") {
		t.Errorf("hybrid SSD load stage did not grow under overcommit")
	}
}

// The designs order strictly: NonB-i < Opt-Block < Def. The factors between
// them are claims rows 4–6.
func TestFig6bImprovementBands(t *testing.T) {
	r := runExp(t, "fig6b", quick())
	nbi, opt, def := metric(t, r, "H-RDMA-Opt-NonB-i.avg_us"), metric(t, r, "H-RDMA-Opt-Block.avg_us"), metric(t, r, "H-RDMA-Def.avg_us")
	if !(nbi < opt && opt < def) {
		t.Errorf("design ordering violated: NonB=%.1f Opt=%.1f Def=%.1f", nbi, opt, def)
	}
}

// The paper's asymmetry: bset write-heavy collapses; bget read-only stays
// high. The overlap bands are claims rows 8–11.
func TestFig7aOverlapShape(t *testing.T) {
	r := runExp(t, "fig7a", quick())
	ro, wh := metric(t, r, "RDMA-NonB-b.read-only.overlap_pct"), metric(t, r, "RDMA-NonB-b.write-heavy.overlap_pct")
	if ro < 3*wh {
		t.Errorf("bget read-only (%.1f%%) not ≫ bset write-heavy (%.1f%%)", ro, wh)
	}
}

// TestFig8bImprovementBands locks Fig. 8(b)'s phases: the non-blocking
// design beats Opt-Block on block write and read latency on both drives at
// both block sizes. Access latency is claims rows 18–19. The experiment's
// byte counts ignore Ops, so this is the registry run itself.
func TestFig8bImprovementBands(t *testing.T) {
	r := runExp(t, "fig8b", quick())
	for _, ssd := range []string{"SATA", "NVMe"} {
		for _, mb := range []string{"2MB", "16MB"} {
			for _, kind := range []string{"write", "read"} {
				key := "improvement_pct." + kind + "." + ssd + "." + mb
				if v := metric(t, r, key); v <= 0 {
					t.Errorf("%s = %.1f%%: NonB-i does not beat Opt-Block", key, v)
				}
			}
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
	if a, b := metric(t, runExp(t, "fig6b", o), key), metric(t, freshExp(t, "fig6b", o), key); a != b {
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
		if got := metric(t, r, k); got != want {
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
