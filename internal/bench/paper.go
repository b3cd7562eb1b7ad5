package bench

import (
	"fmt"

	"hybridkv/internal/blockdev"
	"hybridkv/internal/cluster"
	"hybridkv/internal/core"
	"hybridkv/internal/hybridslab"
	"hybridkv/internal/metrics"
	"hybridkv/internal/pagecache"
	"hybridkv/internal/sim"
	"hybridkv/internal/workload"
)

// The paper's own tables and figures (Section VI): Table I and Figures 1,
// 2, 4, 6, 7 and 8, each a table of cells over the six designs.

// dataFor is the preloaded dataset size: three quarters of server memory
// when the data fits, 1.5x (the paper's 1.5 GB on 1 GB) when it does not.
func dataFor(mem int64, fits bool) int64 {
	if fits {
		return mem * 3 / 4
	}
	return mem * 3 / 2
}

// existing are the three designs that predate the paper's proposals.
var existing = []cluster.Design{cluster.IPoIBMem, cluster.RDMAMem, cluster.HRDMADef}

// hybrids are the four SSD-assisted designs.
var hybrids = []cluster.Design{cluster.HRDMADef, cluster.HRDMAOptBlock, cluster.HRDMAOptNonBB, cluster.HRDMAOptNonBI}

// labeled is a design under the label a figure prints for it.
type labeled struct {
	label  string
	design cluster.Design
}

// figureDesigns are the four hybrid designs under the labels Figures 7(c)
// and 8 print. "H-RDMA-Def-Block" is a figure label, not a design name, so
// that cell's records carry no design and keep the label in the metric.
var figureDesigns = []labeled{
	{"H-RDMA-Def-Block", cluster.HRDMADef},
	{"H-RDMA-Opt-Block", cluster.HRDMAOptBlock},
	{"H-RDMA-Opt-NonB-b", cluster.HRDMAOptNonBB},
	{"H-RDMA-Opt-NonB-i", cluster.HRDMAOptNonBI},
}

// mix is a named read fraction; readMixes the two Figures 7(a) and 8(a)
// contrast.
type mix struct {
	name string
	read float64
}

var readMixes = []mix{{"read-only", 1.0}, {"write-heavy", 0.5}}

// testbeds are the two clusters under the labels the figures print.
var testbeds = []struct {
	ssd  string
	prof func() cluster.Profile
}{{"SATA", cluster.ClusterA}, {"NVMe", cluster.ClusterB}}

// --- Table I: design comparison with existing work ---

// table1 verifies the feature matrix against the actual design wiring: the
// rows are read from cluster.Design's accessors, not hand-maintained.
var table1 = Experiment{
	ID: "tbl1", Title: "Table I: Design comparison with existing work (1 = yes)", tablesOnly: true,
	cells: func(Options) (cells []cell) {
		for _, d := range cluster.Designs {
			cells = append(cells, cell{design: d.String(), collect: func(_ *cluster.Cluster, r *run) {
				adaptive := d.Hybrid() && d.Policy() == hybridslab.PolicyAdaptive
				r.show("RDMA", "rdma", boolMetric(d.Transport() == core.RDMA))
				r.show("hybrid", "hybrid", boolMetric(d.Hybrid()))
				r.show("adaptive", "adaptive", boolMetric(adaptive))
				// NVMe support = hybrid designs run on Cluster B's profile.
				r.plot("NVMe", boolMetric(d.Hybrid()))
				r.show("non-blocking", "nonblocking", boolMetric(d.NonBlocking()))
			}})
		}
		return cells
	},
}

// --- Figure 1: overall Set/Get latency of the existing designs ---

func fig1(id, title string, fits bool) Experiment {
	return Experiment{
		ID: id, Title: title,
		cells: func(o Options) (cells []cell) {
			mem, kv, opsDef := o.geometry()
			for _, d := range existing {
				sp := paperSpec(d, cluster.ClusterA(), mem, dataFor(mem, fits), kv)
				cells = append(cells, cell{
					design: d.String(), spec: sp, drive: sp.closed(zipf(0.5, 7), o.ops(opsDef)),
					collect: func(_ *cluster.Cluster, r *run) {
						r.show("Set µs", "set_us", us(r.SetLat.Mean()))
						r.show("Get µs", "get_us", us(r.GetLat.Mean()))
						r.plot("miss%", pct(r.Misses, r.Ops))
						r.set("avg_us", us(r.Lat.Mean()))
					},
				})
			}
			return cells
		},
		derive: func(v func(string) float64, h *run) {
			h.set("ratio.ipoib_vs_rdma", v("IPoIB-Mem.avg_us")/v("RDMA-Mem.avg_us"))
		},
	}
}

// --- Figures 2 and 6: six-stage time-wise breakdown ---

// breakdown renders per-design stage breakdowns: Figure 2 over the existing
// designs, Figure 6 over all six with the headline improvement factors.
func breakdown(id, title string, fits bool, designs []cluster.Design) Experiment {
	return Experiment{
		ID: id, Title: title + " (per-op µs by stage)", tablesOnly: true,
		cells: func(o Options) (cells []cell) {
			mem, kv, opsDef := o.geometry()
			for _, d := range designs {
				sp := paperSpec(d, cluster.ClusterA(), mem, dataFor(mem, fits), kv)
				cells = append(cells, cell{
					design: d.String(), spec: sp, drive: sp.closed(zipf(0.5, 7), o.ops(opsDef)), collect: collectStages,
				})
			}
			return cells
		},
	}
}

// collectStages stacks the six stages so they sum to the per-op latency:
// the client-wait stage is the residual not attributable to server stages
// or the miss penalty (pure network + blocking time; for a non-blocking run
// the issue stall plus the final wait, amortized).
func collectStages(_ *cluster.Cluster, r *run) {
	row := map[string]sim.Time{}
	var accounted sim.Time
	for _, st := range []string{metrics.StageSlabAlloc, metrics.StageCacheLoad, metrics.StageCacheUpdate, metrics.StageResponse} {
		row[st] = r.Server.PerOp(st, r.Ops)
		accounted += row[st]
	}
	row[metrics.StageMissPenalty] = r.Client.PerOp(metrics.StageMissPenalty, r.Ops)
	accounted += row[metrics.StageMissPenalty]
	if r.PerOp > accounted {
		row[metrics.StageClientWait] = r.PerOp - accounted
	}
	short := map[string]string{
		metrics.StageSlabAlloc: "slab", metrics.StageCacheLoad: "load", metrics.StageCacheUpdate: "update",
		metrics.StageResponse: "resp", metrics.StageClientWait: "cli-wait", metrics.StageMissPenalty: "miss",
	}
	for _, st := range metrics.Stages {
		r.plot(short[st], us(row[st]))
	}
	r.show("total µs", "avg_us", us(r.PerOp))
	r.set("client_wait_us", us(row[metrics.StageClientWait]))
	r.set("slab_alloc_us", us(row[metrics.StageSlabAlloc]))
	r.set("cache_load_us", us(row[metrics.StageCacheLoad]))
	r.set("miss_penalty_us", us(row[metrics.StageMissPenalty]))
}

func fig6(id, title string, fits bool) Experiment {
	e := breakdown(id, title, fits, cluster.Designs)
	e.tablesOnly = false
	// Headline improvement factors (paper: Opt-Block ≈2x over Def; NonB
	// ≈10-16x over Def; NonB ≈3.3-8x over Opt-Block; ≈3.6x over IPoIB when
	// data fits).
	e.derive = func(v func(string) float64, h *run) {
		def, opt := v("H-RDMA-Def.avg_us"), v("H-RDMA-Opt-Block.avg_us")
		nbI, nbB := v("H-RDMA-Opt-NonB-i.avg_us"), v("H-RDMA-Opt-NonB-b.avg_us")
		h.set("improvement.optblock_vs_def", def/opt)
		h.set("improvement.nonb_i_vs_def", def/nbI)
		h.set("improvement.nonb_i_vs_optblock", opt/nbI)
		h.set("improvement.nonb_i_vs_ipoib", v("IPoIB-Mem.avg_us")/nbI)
		h.set("improvement.nonb_b_vs_def", def/nbB)
	}
	return e
}

// --- Figure 4: synchronous eviction I/O schemes across data sizes ---

var fig4 = Experiment{
	ID: "fig4", Title: "Figure 4: Synchronous eviction time by I/O scheme and data size (SATA)",
	cells: func(Options) (cells []cell) {
		for _, size := range []int{2048, 8192, 32 * 1024, 128 * 1024, 512 * 1024, 1 << 20} {
			for _, s := range []pagecache.Scheme{pagecache.Direct, pagecache.Cached, pagecache.Mmap} {
				kb := fmt.Sprintf("%dKB", size/1024)
				cells = append(cells, cell{prefix: s.String() + "." + kb, row: kb, collect: func(_ *cluster.Cluster, r *run) {
					r.show(s.String()+" µs", "_us", us(evictionWrite(size, s)))
				}})
			}
		}
		return cells
	},
	derive: func(v func(string) float64, h *run) {
		h.set("crossover.small_mmap_wins", boolMetric(v("mmap.2KB_us") < v("cached.2KB_us")))
		h.set("crossover.large_cached_wins", boolMetric(v("cached.1024KB_us") < v("mmap.1024KB_us")))
	},
}

// evictionWrite times 64 synchronous writes of size bytes through scheme s
// to a bare SATA device and returns the mean: the cell needs no cluster.
func evictionWrite(size int, s pagecache.Scheme) sim.Time {
	const rounds = 64
	arena := int64(64 << 20)
	env := sim.NewEnv()
	dev := blockdev.New(env, blockdev.SATA(), 4*arena)
	par := pagecache.DefaultParams()
	// 8 MB cache so the 64 MB arena cannot stay resident, with writeback
	// watermarks scaled to match.
	par.MaxPages = 2048
	par.DirtyHighPages = 512
	par.ThrottlePages = 1024
	f := pagecache.New(env, dev, par).OpenFile(0, arena)
	var total sim.Time
	env.Spawn("fig4", func(p *sim.Proc) {
		slots := int(arena) / size
		for i := 0; i < rounds; i++ {
			t0 := p.Now()
			f.Write(p, int64(i%slots)*int64(size), size, i, s)
			total += p.Now() - t0
		}
	})
	env.Run()
	return total / rounds
}

// --- Figure 7(a): communication/computation overlap ---

var fig7a = Experiment{
	ID: "fig7a", Title: "Figure 7(a): Overlap% with different workload patterns (hybrid server, data > memory)",
	cells: func(o Options) (cells []cell) {
		mem, kv, opsDef := o.geometry()
		ops := o.ops(opsDef) / 2
		for _, m := range []labeled{
			{"RDMA-Block", cluster.HRDMAOptBlock},
			{"RDMA-NonB-b", cluster.HRDMAOptNonBB},
			{"RDMA-NonB-i", cluster.HRDMAOptNonBI},
		} {
			for _, mix := range readMixes {
				sp := paperSpec(m.design, cluster.ClusterA(), mem, mem*3/2, kv)
				cells = append(cells, cell{
					prefix: m.label + "." + mix.name + ".", row: m.label, spec: sp,
					drive:   func(cl *cluster.Cluster, r *run) { driveOverlap(cl, sp.gen(zipf(mix.read, 11)), ops, r) },
					collect: func(_ *cluster.Cluster, r *run) { r.show(mix.name+" %", "overlap_pct", r.overlapPct()) },
				})
			}
		}
		return cells
	},
}

// --- Figure 7(b): performance with varying key-value pair sizes ---

var fig7bKB = []int{1, 4, 16, 64, 128}

var fig7b = Experiment{
	ID: "fig7b", Title: "Figure 7(b): Average latency with varying key-value pair sizes (hybrid, data > memory)",
	cells: func(o Options) (cells []cell) {
		mem, _, opsDef := o.geometry()
		mem /= 2 // keep preload volume manageable across the size sweep
		for _, kb := range fig7bKB {
			size := fmt.Sprintf("%dKB", kb)
			for _, d := range hybrids {
				sp := paperSpec(d, cluster.ClusterA(), mem, mem*3/2, kb*1024)
				cells = append(cells, cell{
					design: d.String(), prefix: size, row: size, spec: sp, drive: sp.closed(zipf(0.5, 13), o.ops(opsDef)/2),
					collect: func(_ *cluster.Cluster, r *run) { r.show(d.String(), "_us", us(r.PerOp)) },
				})
			}
		}
		return cells
	},
	// Paper: NonB improves 65-89% over both blocking designs across sizes.
	derive: func(v func(string) float64, h *run) {
		for _, kb := range fig7bKB {
			size := fmt.Sprintf("%dKB", kb)
			def, nbi := v("H-RDMA-Def."+size+"_us"), v("H-RDMA-Opt-NonB-i."+size+"_us")
			h.set("improvement_pct.nonb_i_vs_def."+size, 100*(1-nbi/def))
		}
	},
}

// --- Figure 7(c): aggregated server throughput scalability ---

var fig7c = Experiment{
	ID: "fig7c", Title: "Figure 7(c): Aggregated throughput, 100 clients, 4 servers (8 KB kv, 2:1 overcommit)",
	cells: func(o Options) (cells []cell) {
		// Paper geometry: 4 servers with 1 GB aggregate RAM, 4 GB SSD cap,
		// preload 2 GB of 8 KB pairs, 100 clients on 32 nodes. Scaled: the
		// 2:1 dataset:RAM ratio and client:server ratio are preserved.
		const servers, kv = 4, 8 * 1024
		clients, aggMem := 100, int64(1<<30)
		if !o.Full {
			clients, aggMem = 50, 256<<20
		}
		opsPer := o.ops(48000) / clients * 2
		for _, d := range figureDesigns {
			sp := &spec{Config: cluster.Config{
				Design: d.design, Profile: cluster.ClusterA(), Servers: servers, Clients: clients,
				ServerMem: aggMem / servers, SSDCapacity: 4 * aggMem / servers,
			}, keys: int(2 * aggMem / kv), kv: kv}
			c := cell{design: d.label, spec: sp}
			if d.label != d.design.String() {
				c.design, c.prefix = "", d.label+"."
			}
			c.drive = func(cl *cluster.Cluster, r *run) {
				driveThroughput(cl, func(ci int) *workload.Generator { return sp.gen(zipf(0.5, int64(100+ci))) }, opsPer, 32, r)
			}
			c.collect = func(_ *cluster.Cluster, r *run) {
				r.show("ops/sec", "ops_per_sec", metrics.Throughput(r.Ops, r.Elapsed))
			}
			cells = append(cells, c)
		}
		return cells
	},
	derive: func(v func(string) float64, h *run) {
		def, opt := v("H-RDMA-Def-Block.ops_per_sec"), v("H-RDMA-Opt-Block.ops_per_sec")
		h.set("speedup.optblock_vs_def", opt/def)
		h.set("speedup.nonb_i_vs_block", v("H-RDMA-Opt-NonB-i.ops_per_sec")/opt)
		h.set("speedup.nonb_b_vs_block", v("H-RDMA-Opt-NonB-b.ops_per_sec")/opt)
	},
}

// --- Figure 8(a): SATA vs NVMe with read-only and write-heavy mixes ---

var fig8a = Experiment{
	ID: "fig8a", Title: "Figure 8(a): Latency with SATA (Cluster A) vs NVMe (Cluster B), data > memory",
	cells: func(o Options) (cells []cell) {
		mem, kv, opsDef := o.geometry()
		for _, tb := range testbeds {
			for _, mix := range readMixes {
				for _, d := range figureDesigns {
					sp := paperSpec(d.design, tb.prof(), mem, mem*3/2, kv)
					cells = append(cells, cell{
						prefix: tb.ssd + "." + mix.name + "." + d.label, row: d.label, spec: sp,
						drive:   sp.closed(zipf(mix.read, 17), o.ops(opsDef)/2),
						collect: func(_ *cluster.Cluster, r *run) { r.show(tb.ssd+" "+mix.name, "_us", us(r.PerOp)) },
					})
				}
			}
		}
		return cells
	},
	derive: func(v func(string) float64, h *run) {
		for _, tb := range testbeds {
			for _, mix := range readMixes {
				at := tb.ssd + "." + mix.name
				def := v(at + ".H-RDMA-Def-Block_us")
				h.set("improvement_pct.opt_vs_def."+at, 100*(1-v(at+".H-RDMA-Opt-Block_us")/def))
				h.set("improvement_pct.nonb_i_vs_def."+at, 100*(1-v(at+".H-RDMA-Opt-NonB-i_us")/def))
			}
		}
	},
}

// --- Figure 8(b): bursty block I/O workload ---

var fig8b = Experiment{
	ID: "fig8b", Title: "Figure 8(b): Bursty block I/O latency (4 servers, 256 KB chunks)",
	cells: func(o Options) (cells []cell) {
		const servers = 4
		aggMem, total := int64(256<<20), int64(1<<30)
		if o.Full {
			aggMem, total = 1<<30, 4<<30
		}
		for _, tb := range []int{1, 0} { // the figure leads with NVMe
			for _, mb := range []int{2, 16} {
				for _, d := range []labeled{figureDesigns[1], figureDesigns[3]} {
					at := fmt.Sprintf("%s %dMB", testbeds[tb].ssd, mb)
					cells = append(cells, cell{
						prefix: fmt.Sprintf("%s.%dMB.%s.", testbeds[tb].ssd, mb, d.label), row: d.label,
						spec: &spec{Config: cluster.Config{
							Design: d.design, Profile: testbeds[tb].prof(), Servers: servers, ServerMem: aggMem / servers,
						}},
						drive: func(cl *cluster.Cluster, r *run) {
							driveBlockIO(cl, workload.BlockConfig{BlockSize: mb << 20, ChunkSize: 256 * 1024, TotalBytes: total}, r)
						},
						collect: func(_ *cluster.Cluster, r *run) {
							r.show(at+" wr ms", "write_ms", us(r.SetLat.Mean())/1000)
							r.show(at+" rd ms", "read_ms", us(r.GetLat.Mean())/1000)
						},
					})
				}
			}
		}
		return cells
	},
	derive: func(v func(string) float64, h *run) {
		for _, tb := range testbeds {
			for _, mb := range []int{2, 16} {
				at := fmt.Sprintf("%s.%dMB", tb.ssd, mb)
				blkW, nbiW := v(at+".H-RDMA-Opt-Block.write_ms"), v(at+".H-RDMA-Opt-NonB-i.write_ms")
				blkR, nbiR := v(at+".H-RDMA-Opt-Block.read_ms"), v(at+".H-RDMA-Opt-NonB-i.read_ms")
				h.set("improvement_pct.write."+at, 100*(1-nbiW/blkW))
				h.set("improvement_pct.read."+at, 100*(1-nbiR/blkR))
				// The paper's headline is block *access* latency — the
				// write+read round trip of a block through the cluster.
				h.set("improvement_pct.access."+at, 100*(1-(nbiW+nbiR)/(blkW+blkR)))
			}
		}
	},
}
