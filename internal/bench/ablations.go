package bench

import (
	"fmt"

	"hybridkv/internal/cluster"
	"hybridkv/internal/core"
	"hybridkv/internal/metrics"
	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
	"hybridkv/internal/workload"
)

// This file holds the ablation studies for the design choices DESIGN.md
// calls out: each isolates one lever (workload skew, storage worker pool,
// request-buffer bound, issue window, adaptive cutoff) while holding the
// rest of the system at the paper's configuration.

// overcommitted is the paper's 1.5:1 single-server geometry on SATA with
// one knob of the cluster config turned.
func overcommitted(d cluster.Design, o Options, knob func(*cluster.Config)) *spec {
	mem, kv, _ := o.geometry()
	sp := paperSpec(d, cluster.ClusterA(), mem, mem*3/2, kv)
	if knob != nil {
		knob(&sp.Config)
	}
	return sp
}

// halfOps is the ablations' measured operation count.
func halfOps(o Options) int {
	_, _, opsDef := o.geometry()
	return o.ops(opsDef) / 2
}

var ablSkews = []float64{0.2, 0.5, 0.8, 0.99, 1.2}

// ablZipf sweeps the zipfian exponent and reports the fig6b-style
// improvement factors, making the calibration sensitivity explicit: the
// orderings hold across the whole range even though absolute factors move.
var ablZipf = Experiment{
	ID: "abl-zipf", Title: "Ablation: workload skew vs design improvements (1.5:1 overcommit, SATA)",
	cells: func(o Options) (cells []cell) {
		for _, s := range ablSkews {
			for _, d := range []struct {
				name, col string
				design    cluster.Design
			}{
				{"def", "Def µs", cluster.HRDMADef},
				{"opt", "Opt µs", cluster.HRDMAOptBlock},
				{"nonb", "NonB-i µs", cluster.HRDMAOptNonBI},
			} {
				sp := overcommitted(d.design, o, nil)
				w := zipf(0.5, 23)
				w.ZipfS = s
				cells = append(cells, cell{
					prefix: fmt.Sprintf("s=%.2f.%s", s, d.name), row: fmt.Sprintf("s=%.2f", s),
					spec: sp, drive: sp.closed(w, halfOps(o)),
					collect: func(_ *cluster.Cluster, r *run) { r.show(d.col, "_us", us(r.PerOp)) },
				})
			}
		}
		return cells
	},
	derive: func(v func(string) float64, h *run) {
		for _, s := range ablSkews {
			at := fmt.Sprintf("s=%.2f", s)
			def, opt, nonb := v(at+".def_us"), v(at+".opt_us"), v(at+".nonb_us")
			h.plotAt(h.cell.table, "NonB/Def", at, def/nonb)
			h.set(at+".nonb_vs_def", def/nonb)
			h.set(at+".ordering_holds", boolMetric(nonb < opt && opt < def))
		}
	},
}

// ablWorkers sweeps the async server's storage worker pool.
var ablWorkers = Experiment{
	ID: "abl-workers", Title: "Ablation: async storage workers vs NonB-i latency",
	cells: func(o Options) (cells []cell) {
		for _, n := range []int{1, 2, 4, 8} {
			sp := overcommitted(cluster.HRDMAOptNonBI, o, func(c *cluster.Config) { c.StorageWorkers = n })
			cells = append(cells, cell{
				prefix: fmt.Sprintf("workers=%d.", n), spec: sp, drive: sp.closed(zipf(0.5, 29), halfOps(o)),
				collect: func(_ *cluster.Cluster, r *run) { r.show("NonB-i µs", "per_op_us", us(r.PerOp)) },
			})
		}
		return cells
	},
}

// ablBuffer sweeps the key-value size against bset's write-heavy overlap,
// exposing the mechanism behind Figure 7(a)'s collapse: bset must wait
// until the value leaves the NIC, so overlap falls as the value grows
// toward the link's serialization budget.
var ablBuffer = Experiment{
	ID: "abl-buffer", Title: "Ablation: value size vs bset write-heavy overlap%",
	cells: func(o Options) (cells []cell) {
		mem, _, _ := o.geometry()
		mem /= 2
		for _, kv := range []int{2048, 8192, 32 * 1024, 128 * 1024} {
			sp := paperSpec(cluster.HRDMAOptNonBB, cluster.ClusterA(), mem, mem*3/2, kv)
			cells = append(cells, cell{
				prefix: fmt.Sprintf("%dKB.", kv/1024), spec: sp,
				drive:   func(cl *cluster.Cluster, r *run) { driveOverlap(cl, sp.gen(zipf(0.5, 31)), halfOps(o)/2, r) },
				collect: func(_ *cluster.Cluster, r *run) { r.show("overlap %", "overlap_pct", r.overlapPct()) },
			})
		}
		return cells
	},
}

// setLatencyCell measures blocking Set latency on a write-heavy (30% read)
// workload: the measurement the cutoff and flush ablations share.
func setLatencyCell(label string, sp *spec, seed int64, ops int) cell {
	return cell{
		prefix: label + ".", spec: sp, drive: sp.closed(zipf(0.3, seed), ops),
		collect: func(_ *cluster.Cluster, r *run) { r.show("set µs", "set_us", us(r.SetLat.Mean())) },
	}
}

// ablCutoff sweeps the adaptive mmap/cached class boundary.
var ablCutoff = Experiment{
	ID: "abl-cutoff", Title: "Ablation: adaptive cutoff vs Opt-Block set latency (write-heavy)",
	cells: func(o Options) (cells []cell) {
		for _, cutoff := range []int{0, 4 * 1024, 16 * 1024, 64 * 1024, 1 << 20} {
			sp := overcommitted(cluster.HRDMAOptBlock, o, func(c *cluster.Config) { c.AdaptiveCutoff = cutoff })
			cells = append(cells, setLatencyCell(fmt.Sprintf("cutoff=%dK", cutoff/1024), sp, 37, halfOps(o)))
		}
		return cells
	},
}

// ablWindow sweeps the non-blocking issue window against throughput,
// showing how deep the pipeline must be to hide the hybrid storage path.
var ablWindow = Experiment{
	ID: "abl-window", Title: "Ablation: issue window vs NonB-i throughput (4 clients)",
	cells: func(o Options) (cells []cell) {
		for _, window := range []int{1, 4, 16, 64, 256} {
			sp := overcommitted(cluster.HRDMAOptNonBI, o, func(c *cluster.Config) { c.Clients = 4 })
			cells = append(cells, cell{
				prefix: fmt.Sprintf("window=%d.", window), spec: sp,
				drive: func(cl *cluster.Cluster, r *run) {
					driveThroughput(cl, func(ci int) *workload.Generator { return sp.gen(zipf(0.5, int64(41+ci))) },
						o.ops(3000)/4, window, r)
				},
				collect: func(_ *cluster.Cluster, r *run) {
					r.show("ops/sec", "ops_per_sec", metrics.Throughput(r.Ops, r.Elapsed))
				},
			})
		}
		return cells
	},
}

// ablAsyncFlush contrasts synchronous eviction with write-behind flushing
// (the paper's future work) on the H-RDMA-Def design, whose direct-I/O
// flushes sit on the request path — the case async SSD I/O is meant to
// rescue.
var ablAsyncFlush = Experiment{
	ID: "abl-asyncflush", Title: "Ablation: synchronous vs write-behind eviction (H-RDMA-Def, write-heavy)",
	cells: func(o Options) (cells []cell) {
		for _, async := range []bool{false, true} {
			sp := overcommitted(cluster.HRDMADef, o, func(c *cluster.Config) { c.AsyncFlush = async })
			label := map[bool]string{false: "sync-flush", true: "write-behind"}[async]
			cells = append(cells, setLatencyCell(label, sp, 43, halfOps(o)))
		}
		return cells
	},
	derive: func(v func(string) float64, h *run) {
		h.set("speedup.write_behind", v("sync-flush.set_us")/v("write-behind.set_us"))
	},
}

// ablLibbuf reproduces the paper's Section IV-A comparison: default
// libmemcached's connection-wide buffering mode defers Sets cheaply but
// makes every data-returning Get pay to flush the queue, whereas the
// non-blocking extensions keep both cheap and add per-op completion
// guarantees. Workload: bursts of 16 Sets followed by one Get.
var ablLibbuf = Experiment{
	ID: "abl-libbuf", Title: "Ablation: libmemcached buffering mode vs non-blocking extensions (16 Sets then 1 Get, 32 KB)",
	cells: func(o Options) (cells []cell) {
		for _, m := range []struct {
			labeled
			buffered bool
		}{
			{labeled{"IPoIB-plain", cluster.IPoIBMem}, false},
			{labeled{"IPoIB-buffered", cluster.IPoIBMem}, true},
			{labeled{"RDMA-NonB-i", cluster.HRDMAOptNonBI}, false},
		} {
			cells = append(cells, cell{
				prefix: m.label + ".",
				spec:   &spec{Config: cluster.Config{Design: m.design, Profile: cluster.ClusterA(), ServerMem: 256 << 20}},
				drive:  func(cl *cluster.Cluster, r *run) { driveSetBursts(cl, o.ops(1600)/17, m.buffered, r) },
				collect: func(_ *cluster.Cluster, r *run) {
					r.show("set µs", "set_us", us(r.SetLat.Mean()))
					r.show("get µs", "get_us", us(r.GetLat.Mean()))
				},
			})
		}
		return cells
	},
	derive: func(v func(string) float64, h *run) {
		h.set("buffered_get_penalty", v("IPoIB-buffered.get_us")/v("IPoIB-plain.get_us"))
	},
}

// driveSetBursts runs bursts of 16 32 KB Sets followed by one Get of the
// burst's first key, timing each Set call (SetLat) and the Get to its data
// (GetLat). buffered turns on libmemcached's buffering mode first.
func driveSetBursts(cl *cluster.Cluster, bursts int, buffered bool, r *run) {
	const kv = 32 * 1024
	c := cl.Clients[0]
	if buffered {
		must(c.SetBuffering(true))
	}
	key := func(b, i int) string { return fmt.Sprintf("burst:%05d:%02d", b, i) }
	cl.Env.Spawn("drv", func(p *sim.Proc) {
		for b := 0; b < bursts; b++ {
			var reqs []*core.Req
			for i := 0; i < 16; i++ {
				t0 := p.Now()
				reqs = append(reqs, issueAs(p, cl, c, core.Op{Code: protocol.OpSet, Key: key(b, i), ValueSize: kv, Value: b}, nil))
				r.SetLat.Add(p.Now() - t0)
			}
			t0 := p.Now()
			do(p, c, core.Op{Code: protocol.OpGet, Key: key(b, 0)}, nil)
			c.WaitAll(p, reqs)
			r.GetLat.Add(p.Now() - t0)
		}
	})
	cl.Env.Run()
	r.Ops = int64(bursts * 17)
}
