package bench

import (
	"fmt"

	"hybridkv/internal/cluster"
	"hybridkv/internal/core"
	"hybridkv/internal/history"
	"hybridkv/internal/metrics"
	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
	"hybridkv/internal/workload"
)

// The hotkey experiment: a celebrity-key flash crowd — steady zipf traffic,
// then a burst window in which nearly every client asks for the same key —
// driven against three read paths: plain RPC, server-bypass READs, and
// bypass with hot-key replicated-read fan-out. Without fan-out every
// celebrity GET lands on the key's primary, so the burst saturates one
// server's egress while its replicas idle; with fan-out the servers' sketches
// detect the key (fed by the 1-in-N RPC heat sample), the crawler publishes
// it, clients learn it on their next piggybacked directory refresh, and the
// burst spreads across the whole replica set. The headline is the R=3
// goodput ratio of fan-out over plain bypass. A separate chaos cell re-runs
// the CAS-chain history checker under fan-out plus whole-node kills: spread
// reads must never surface a value older than the last acked write.

const (
	hotServers   = 3
	hotClients   = 3
	hotWorkers   = 8 // per client
	hotKeys      = 384
	hotValueSize = 8 << 10

	// Arrival: steady zipf at hotThink per worker, then a hotSpike× flash
	// crowd for most of the run. During the burst 7 of 8 ops target the
	// celebrity key.
	hotThink      = 8 * sim.Microsecond
	hotSpike      = 16.0
	hotBurstStart = 500 * sim.Microsecond
	hotBurstLen   = 40 * sim.Millisecond

	// hotCrawl is the per-server LRU-crawler cadence; each pass also
	// distills the access sketch into the published hot set.
	hotCrawl = 200 * sim.Microsecond

	hotChaosReaders = 3
)

// startCrawlers starts every server's crawler and returns a supervisor
// hook: call finished once per driver, and when all drivers of them have,
// the supervisor stops the crawlers (the periodic crawlers would otherwise
// keep the simulation from draining) and stamps r.Elapsed.
func startCrawlers(cl *cluster.Cluster, drivers int, r *run) (finished func()) {
	for _, s := range cl.Servers {
		must(s.Store().StartCrawler(hotCrawl, 4096))
	}
	done := sim.NewQueue[int](cl.Env, 0)
	start := cl.Env.Now()
	cl.Env.Spawn("hot-supervisor", func(p *sim.Proc) {
		for i := 0; i < drivers; i++ {
			done.Get(p)
		}
		r.Elapsed = p.Now() - start
		for _, s := range cl.Servers {
			s.Store().StopCrawler()
		}
	})
	return func() { done.TryPut(1) }
}

// hotkeyCell is one flash-crowd cell: preload, start the crawlers, drive
// the crowd through the given read path at replication factor replicas.
func hotkeyCell(path string, replicas, ops int) cell {
	sp := &spec{Config: cluster.Config{
		Design: cluster.HRDMAOptNonBI, Profile: cluster.ClusterA(), Servers: hotServers, Clients: hotClients,
		ServerMem:         16 << 20, // dataset fits: no eviction noise
		ReplicationFactor: replicas, Bypass: path != "rpc", HotFanout: path == "fanout",
	}, keys: hotKeys, kv: hotValueSize}
	arr := workload.Arrival{
		Schedule: workload.FlashCrowd, Base: hotThink,
		Spike: hotSpike, BurstStart: hotBurstStart, BurstLen: hotBurstLen,
	}
	return cell{
		prefix: fmt.Sprintf("%s.R%d.", path, replicas), spec: sp,
		drive: func(cl *cluster.Cluster, r *run) {
			spawnWorkers(cl, workers{
				perClient: hotWorkers, ops: ops / (hotClients * hotWorkers),
				gen: func(worker int) *workload.Generator { return sp.gen(zipf(0.95, int64(1000+worker))) },
				pick: func(i int, rel sim.Time) (workload.OpKind, string, bool) {
					return workload.OpGet, keyOf(0), arr.InBurst(rel) && i%8 != 0
				},
				think:    arr.Think,
				finished: startCrawlers(cl, hotClients*hotWorkers, r),
			}, r)
			cl.Env.Run()
		},
		collect: func(_ *cluster.Cluster, r *run) {
			fallback, reads, bytes := bypassCounts(r)
			r.show("goodput kops", "goodput_kops", opsPerSec(r.OK, r.Elapsed)/1e3)
			r.set("get_us", us(r.GetLat.Mean()))
			r.show("p99 µs", "get_p99_us", us(r.GetLat.Quantile(0.99)))
			r.plot("fanouts", float64(r.Faults.Val(metrics.CHotFanouts)))
			r.plot("fallback%", fallback)
			r.set("ok", float64(r.OK))
			if path == "rpc" {
				return
			}
			r.set("fallback_pct", fallback)
			r.set("reprobes", float64(r.Faults.Val(metrics.CBypassReprobes)))
			r.set("reads", float64(r.Faults.Val(metrics.CBypassReads)))
			r.set("read_doorbells", float64(r.Faults.Val(metrics.CBypassReadDoorbells)))
			r.set("reads_per_hit", reads)
			r.set("read_bytes_per_hit", bytes)
			r.counts(r.Faults, "hot-samples", "hot-refreshes")
			if path == "fanout" {
				r.set("fanouts", float64(r.Faults.Val(metrics.CHotFanouts)))
			}
		},
	}
}

// hotChaosCell is the safety cell: R=3 with bypass + fan-out, CAS-chain
// writers and auto-path readers hammering a handful of keys hot, whole-node
// kills (RAM-only, then RAM+SSD) mid-run, and the replicated history checker
// over every logged operation. Fan-out must never surface a stale read:
// every replica applies an acked write before the client sees the ack, and a
// cold-recovered node withholds suspect keys from both read paths.
func hotChaosCell(rounds int) cell {
	return cell{
		prefix: "chaos.",
		spec: &spec{Config: cluster.Config{
			Design: cluster.HRDMAOptNonBI, Profile: cluster.ClusterA(), Servers: hotServers, Clients: 1,
			ServerMem: 8 << 20, ReplicationFactor: 3, Bypass: true, HotFanout: true,
		}},
		drive: func(cl *cluster.Cluster, r *run) {
			c := cl.Clients[0]
			r.Log = &history.Log{Replicated: true}
			ch := checkerChain("hot", rounds, 17, true, false)
			ch.done = startCrawlers(cl, ch.writers+hotChaosReaders, r)
			ch.start = warmHotSet(cl, c, ch)
			r.spawnWriters(cl, c, ch)

			// Readers: auto-path GETs over the same six keys — hammering
			// them hot so the sampled sketch publishes them and reads fan
			// out mid-kill-schedule.
			for rd := 0; rd < hotChaosReaders; rd++ {
				r.Log.Expected += rounds * 2
				cl.Env.Spawn(fmt.Sprintf("hot-reader%d", rd), func(p *sim.Proc) {
					defer ch.leave()
					ch.enter(p)
					for i := 0; i < rounds*2; i++ {
						r.read(p, c, ch.writers+rd, ch.key((rd+i)%ch.writers, i%ch.keysPer), ch.get)
						p.Sleep(40 * sim.Microsecond)
					}
				})
			}
			spawnOutages(cl, ch.start, r.Log, nodeKills(300*sim.Microsecond)...)
			cl.Env.Run()
			r.Ops = int64(r.Log.Expected)
		},
		collect: func(_ *cluster.Cluster, r *run) {
			r.set("violations", r.check(false))
			r.set("entries", float64(len(r.Log.Entries)))
			r.set("fanouts", float64(r.Faults.Val(metrics.CHotFanouts)))
		},
	}
}

// warmHotSet runs the chaos cell's warm-up and returns the event that
// releases the actors. The cell tests safety under fan-out, not detection
// latency (the perf cells own that), so push the six contended keys over
// the sketch threshold with forced-RPC reads, give the crawler a pass to
// publish, and drive enough GET issues past the refresh pacing that the
// client has learned the set before any driver starts. Nothing here is
// logged.
func warmHotSet(cl *cluster.Cluster, c *core.Client, ch *chain) *sim.Event {
	warm := cl.Env.NewEvent()
	cl.Env.Spawn("hot-chaos-warm", func(p *sim.Proc) {
		seed := func(n int) {
			for i := 0; i < n; i++ {
				key := ch.key(i%ch.writers, (i/ch.writers)%ch.keysPer)
				do(p, c, core.Op{Code: protocol.OpGet, Key: key}, []core.IssueOption{core.WithReadPath(core.ReadRPC)})
			}
		}
		seed(256)                     // heat the sketch (and trip one refresh)
		p.Sleep(2 * hotCrawl)         // let a crawl pass publish the set
		seed(256)                     // the refresh this trips learns it
		p.Sleep(50 * sim.Microsecond) // let the refresh response land
		warm.Fire()
	})
	return warm
}

// hotkey is the registry entry: {rpc, bypass, fanout} × R ∈ {1,2,3}, plus
// the fan-out chaos cell. Headlines: fanout_speedup_r3 (goodput of fan-out
// over plain bypass at R=3) and chaos.violations (must be zero).
var hotkeyExp = Experiment{
	ID: "hotkey", Title: "Hot-key serving: celebrity flash crowd vs replicated-read fan-out",
	cells: func(o Options) (cells []cell) {
		for _, replicas := range []int{1, 2, 3} {
			for _, path := range []string{"rpc", "bypass", "fanout"} {
				cells = append(cells, hotkeyCell(path, replicas, o.ops(14400)))
			}
		}
		// The chaos cell logs 2 entries per round from each of its 3 writers
		// and 3 readers.
		return append(cells, hotChaosCell(max(8, o.ops(420)/12)))
	},
	derive: func(v func(string) float64, h *run) {
		h.set("fanout_speedup_r3", v("fanout.R3.goodput_kops")/v("bypass.R3.goodput_kops"))
	},
}
