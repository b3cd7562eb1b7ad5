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

// The bypass experiment: the same concurrent GET-heavy workloads driven
// against two otherwise-identical deployments — one resolving every GET by
// request/response RPC, one with the server-bypass read path enabled
// (one one-sided RDMA READ of the key's directory slot, which carries these
// cells' 512-byte values inline; RPC fallback on any validation failure).
// The headline is the read-heavy zipf pair: bypass
// GETs skip the server's serial dispatch entirely, so hit latency and
// aggregate throughput both beat the RPC path while the fallback machinery
// keeps misses, SSD-resident values, and write races exactly correct. The
// "ssd" cells overcommit RAM so roughly half the dataset is SSD-resident:
// bypass probes then fall back constantly, and the cell demonstrates the
// fallback tax is modest rather than pathological.

// Small values keep the server's egress link out of saturation, so the
// cells measure what the bypass path actually removes — the server's serial
// dispatch CPU — rather than a wire bottleneck both paths share equally.
const (
	bypassValueSize = 512
	bypassDataBytes = 4 << 20
	bypassWorkers   = 8 // per client; 2 clients
	bypassClients   = 2
)

// bypassRun is one measured cell.
type bypassRun struct {
	GetLat  *metrics.Hist
	Ops     int64
	Misses  int64
	Elapsed sim.Time
	Stats   core.ClientStats // summed over clients
}

// kops is throughput in thousand operations per virtual second.
func (r *bypassRun) kops() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / (float64(r.Elapsed) / float64(sim.Second)) / 1e3
}

// perBypassHit averages what the one-sided hits cost (READs, READ bytes)
// over the hits: ROADMAP item 3's two axes. The third, the share of GETs
// that got no hit, is fallbackPct.
func perBypassHit(total int64, st *core.ClientStats) float64 {
	if st.BypassHits == 0 {
		return 0
	}
	return float64(total) / float64(st.BypassHits)
}

// fastpathPct is the share of bypass hits resolved by exactly one READ: the
// value rode in the directory slot, or sat at a cached segment offset.
func (r *bypassRun) fastpathPct() float64 {
	if r.Stats.BypassHits == 0 {
		return 0
	}
	return 100 * float64(r.Stats.BypassFastPath) / float64(r.Stats.BypassHits)
}

// fallbackPct is the share of bypass attempts that fell back to RPC.
func (r *bypassRun) fallbackPct() float64 {
	total := r.Stats.BypassHits + r.Stats.BypassFallbacks
	if total == 0 {
		return 0
	}
	return 100 * float64(r.Stats.BypassFallbacks) / float64(total)
}

// runBypass executes one cell: preload, then bypassClients clients ×
// bypassWorkers workers of mixed non-blocking traffic; GET latency is
// recorded per completion.
func runBypass(bypass bool, readFrac float64, pat workload.Pattern, fits bool, ops int) *bypassRun {
	mem := int64(16 << 20)
	if !fits {
		mem = 2 << 20 // half the dataset lives on SSD: fallback territory
	}
	cl := cluster.New(cluster.Config{
		Design:    cluster.HRDMAOptNonBI,
		Profile:   cluster.ClusterA(),
		Servers:   1,
		Clients:   bypassClients,
		ServerMem: mem,
		Bypass:    bypass,
	})
	keys := int(bypassDataBytes / bypassValueSize)
	cl.Preload(keys, bypassValueSize, keyOf)

	run := &bypassRun{GetLat: metrics.NewHist()}
	perWorker := ops / (bypassClients * bypassWorkers)
	run.Ops = int64(perWorker * bypassClients * bypassWorkers)
	start := cl.Env.Now()
	for ci := 0; ci < bypassClients; ci++ {
		c := cl.Clients[ci]
		for w := 0; w < bypassWorkers; w++ {
			gen := workload.New(workload.Config{
				Keys: keys, ValueSize: bypassValueSize, ReadFraction: readFrac,
				Pattern: pat, ZipfS: zipfFits, Seed: int64(100 + ci*bypassWorkers + w),
			})
			cl.Env.Spawn(fmt.Sprintf("bypass-drv-c%d-w%d", ci, w), func(p *sim.Proc) {
				for i := 0; i < perWorker; i++ {
					kind, key := gen.Next()
					if kind == workload.OpSet {
						req, err := c.Issue(p, core.Op{
							Code: protocol.OpSet, Key: key,
							ValueSize: bypassValueSize, Value: key,
						})
						if err != nil {
							panic("bench: bypass set issue: " + err.Error())
						}
						c.Wait(p, req)
						continue
					}
					t0 := p.Now()
					req, err := c.Issue(p, core.Op{Code: protocol.OpGet, Key: key})
					if err != nil {
						panic("bench: bypass get issue: " + err.Error())
					}
					c.Wait(p, req)
					run.GetLat.Add(p.Now() - t0)
					if req.Status == protocol.StatusNotFound {
						run.Misses++
					}
				}
			})
		}
	}
	cl.Env.Run()
	run.Elapsed = cl.Env.Now() - start
	for _, c := range cl.Clients {
		st := c.Stats()
		run.Stats.BypassHits += st.BypassHits
		run.Stats.BypassFastPath += st.BypassFastPath
		run.Stats.BypassFallbacks += st.BypassFallbacks
		run.Stats.BypassBootstraps += st.BypassBootstraps
		run.Stats.BypassHitReads += st.BypassHitReads
		run.Stats.BypassHitReadBytes += st.BypassHitReadBytes
	}
	return run
}

// bypassExp is the registry entry: {rpc, bypass} × {read-only, 95:5, 50:50
// zipf; read-only uniform; read-only zipf with SSD overcommit}.
func bypassExp(o Options) *Result {
	res := newResult("bypass",
		"Server-bypass GETs: one-sided READ vs RPC read path")
	ops := o.ops(4800)

	mean := &metrics.Series{Name: "Get µs"}
	p99 := &metrics.Series{Name: "p99 µs"}
	thr := &metrics.Series{Name: "kops"}
	fb := &metrics.Series{Name: "fallback%"}

	cells := []struct {
		name     string
		readFrac float64
		pat      workload.Pattern
		fits     bool
	}{
		{"read.zipf", 1.0, workload.Zipf, true},
		{"r95.zipf", 0.95, workload.Zipf, true},
		{"rw50.zipf", 0.5, workload.Zipf, true},
		{"read.unif", 1.0, workload.Uniform, true},
		{"read.ssd", 1.0, workload.Zipf, false},
	}
	for _, cell := range cells {
		for _, bypass := range []bool{false, true} {
			path := "rpc"
			if bypass {
				path = "bypass"
			}
			name := path + "." + cell.name
			run := runBypass(bypass, cell.readFrac, cell.pat, cell.fits, ops)

			mean.Append(name, us(run.GetLat.Mean()))
			p99.Append(name, us(run.GetLat.Quantile(0.99)))
			thr.Append(name, run.kops())
			fb.Append(name, run.fallbackPct())

			res.metric(name+".get_us", us(run.GetLat.Mean()))
			res.metric(name+".get_p99_us", us(run.GetLat.Quantile(0.99)))
			res.metric(name+".kops", run.kops())
			res.metric(name+".misses", float64(run.Misses))
			if bypass {
				res.metric(name+".hits", float64(run.Stats.BypassHits))
				res.metric(name+".fastpath_pct", run.fastpathPct())
				res.metric(name+".fallback_pct", run.fallbackPct())
				res.metric(name+".reads_per_hit", perBypassHit(run.Stats.BypassHitReads, &run.Stats))
				res.metric(name+".read_bytes_per_hit", perBypassHit(run.Stats.BypassHitReadBytes, &run.Stats))
			}
		}
	}
	// Headline: the read-heavy zipf speedup of the bypass path.
	res.metric("speedup.read.zipf.get_us",
		res.Metrics["rpc.read.zipf.get_us"]/res.Metrics["bypass.read.zipf.get_us"])
	res.metric("speedup.read.zipf.kops",
		res.Metrics["bypass.read.zipf.kops"]/res.Metrics["rpc.read.zipf.kops"])
	res.Output = res.addTable(res.Title, mean, p99, thr, fb) + res.renderMetrics()
	return res
}
