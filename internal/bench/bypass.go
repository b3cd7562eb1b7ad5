package bench

import (
	"hybridkv/internal/cluster"
	"hybridkv/internal/metrics"
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

// readPaths are the two read paths the bypass cells contrast, and the
// hotkey cells extend with fan-out.
var readPaths = map[bool]string{false: "rpc", true: "bypass"}

// bypassCounts names the values every bypass-path cell keeps about what its
// one-sided hits cost: READs and READ bytes per hit (ROADMAP item 3's two
// axes) and the share of GETs that got no hit and fell back to RPC.
func bypassCounts(r *run) (fallbackPct, readsPerHit, bytesPerHit float64) {
	hits, fallbacks := r.Faults.Val(metrics.CBypassHits), r.Faults.Val(metrics.CBypassFallbacks)
	if hits > 0 {
		readsPerHit = float64(r.Faults.Val(metrics.CBypassHitReads)) / float64(hits)
		bytesPerHit = float64(r.Faults.Val(metrics.CBypassHitReadBytes)) / float64(hits)
	}
	return pct(fallbacks, hits+fallbacks), readsPerHit, bytesPerHit
}

// bypass is the registry entry: {rpc, bypass} × {read-only, 95:5, 50:50
// zipf; read-only uniform; read-only zipf with SSD overcommit}.
var bypassExp = Experiment{
	ID: "bypass", Title: "Server-bypass GETs: one-sided READ vs RPC read path",
	cells: func(o Options) (cells []cell) {
		perWorker := o.ops(4800) / (bypassClients * bypassWorkers)
		for _, mix := range []struct {
			name string
			w    workload.Config
			fits bool
		}{
			{"read.zipf", zipf(1.0, 100), true},
			{"r95.zipf", zipf(0.95, 100), true},
			{"rw50.zipf", zipf(0.5, 100), true},
			{"read.unif", uniform(1.0, 100), true},
			{"read.ssd", zipf(1.0, 100), false},
		} {
			for _, on := range []bool{false, true} {
				mem := int64(16 << 20)
				if !mix.fits {
					mem = 2 << 20 // half the dataset lives on SSD: fallback territory
				}
				sp := paperSpec(cluster.HRDMAOptNonBI, cluster.ClusterA(), mem, bypassDataBytes, bypassValueSize)
				sp.Clients, sp.Bypass = bypassClients, on
				cells = append(cells, cell{
					prefix: readPaths[on] + "." + mix.name + ".", spec: sp,
					drive: func(cl *cluster.Cluster, r *run) {
						start := cl.Env.Now()
						spawnWorkers(cl, workers{perClient: bypassWorkers, ops: perWorker, gen: func(worker int) *workload.Generator {
							w := mix.w
							w.Seed += int64(worker)
							return sp.gen(w)
						}}, r)
						cl.Env.Run()
						r.Elapsed = cl.Env.Now() - start
					},
					collect: func(_ *cluster.Cluster, r *run) {
						fallback, reads, bytes := bypassCounts(r)
						r.show("Get µs", "get_us", us(r.GetLat.Mean()))
						r.show("p99 µs", "get_p99_us", us(r.GetLat.Quantile(0.99)))
						r.show("kops", "kops", opsPerSec(r.Ops, r.Elapsed)/1e3)
						r.plot("fallback%", fallback)
						r.set("misses", float64(r.Misses))
						if !on {
							return
						}
						hits := r.Faults.Val(metrics.CBypassHits)
						r.set("hits", float64(hits))
						r.set("fastpath_pct", pct(r.Faults.Val(metrics.CBypassFastPath), hits))
						r.set("fallback_pct", fallback)
						r.set("reads_per_hit", reads)
						r.set("read_bytes_per_hit", bytes)
					},
				})
			}
		}
		return cells
	},
	// Headline: the read-heavy zipf speedup of the bypass path.
	derive: func(v func(string) float64, h *run) {
		h.set("speedup.read.zipf.get_us", v("rpc.read.zipf.get_us")/v("bypass.read.zipf.get_us"))
		h.set("speedup.read.zipf.kops", v("bypass.read.zipf.kops")/v("rpc.read.zipf.kops"))
	},
}
