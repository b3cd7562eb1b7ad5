package bench

import (
	"fmt"

	"hybridkv/internal/cluster"
	"hybridkv/internal/core"
	"hybridkv/internal/fault"
	"hybridkv/internal/history"
	"hybridkv/internal/sim"
)

// The chaos soak: every robustness mechanism at once — message drops,
// duplicates and latency spikes from the fault injector, a warm crash and a
// cold restart of one server, and a flooder client keeping the bounded
// admission layer shedding — while the checker workers of actors.go log
// every operation they perform. After the run the log is checked offline.
//
// Checker soundness depends on two deliberate asymmetries between the two
// clients. In the unreplicated soak the checker client has no circuit
// breaker and retries without failover: its keys live on exactly one ring
// server, and rerouting a write to the wrong server would manufacture
// stale-read "violations" the server never committed. (The replicated soak
// lifts exactly that restriction — with R ≥ 2 every replica holds each
// acked write, so the checker fails over freely and the stale-read rule
// tightens instead, dropping its crash excuse.) The flooder client is the
// opposite — breaker armed, short deadlines, scratch keys that are never
// logged — because its job is generating overload and exercising the
// breaker, not producing evidence.

const (
	// Checker guard: generous on purpose. The bounded queue drains in a
	// few hundred microseconds, so a healthy protected server answers well
	// inside one attempt; the budget exists to ride out link faults, the
	// warm-crash window, and the cold-restart recovery scan.
	chaosDeadline    = 60 * sim.Millisecond
	chaosMaxAttempts = 8

	chaosWriters = 3
	chaosThink   = 120 * sim.Microsecond

	// Flood bursts are sized past the admission watermarks: one burst of
	// 16 × 8 KB overruns the 96 KB buffer's SET watermark by itself, so a
	// protected server sheds under every burst.
	chaosFloodValue = 8 * 1024
	chaosFloodKeys  = 512
	chaosFloodBurst = 16
	chaosFloodGap   = 100 * sim.Microsecond

	// chaosLimit bounds the whole soak: if the simulation has not drained
	// by then, something is wedged and the liveness check reports it.
	chaosLimit = 500 * sim.Millisecond
)

// checkerChain is the checker workload the soaks share: three CAS-chain
// writers over two 4 KB keys each plus the counter, under the chaos guard.
func checkerChain(ns string, rounds int, seed int64, failover, bufferAck bool) *chain {
	g := guard{deadline: chaosDeadline, attempts: chaosMaxAttempts, seed: seed, failover: failover}
	return &chain{
		ns: ns, writers: chaosWriters, keysPer: 2, rounds: rounds,
		valueSize: 4 * 1024, think: chaosThink,
		get: g.opts(false), set: g.opts(bufferAck),
	}
}

// checkerRounds turns an -ops budget of logged entries into rounds per
// worker: each round logs 2·writers + 1 of them.
func checkerRounds(o Options) int { return max(8, o.ops(420)/(chaosWriters*2+1)) }

// chaosCell soaks design d for rounds rounds per worker and checks the
// observed history; seed drives the fault injector. replicas > 1 attaches
// the primary–backup replication chain (every change below is gated on it,
// so replicas ≤ 1 stays bit-identical to the unreplicated soak), and kills
// swaps the warm-crash/cold-restart schedule for whole-node kills — first
// RAM only, then RAM plus a wiped SSD — the failure mode only replication
// can survive. In replicated mode the checker runs with Replicated
// histories and the checker client is allowed to fail over.
func chaosCell(d cluster.Design, rounds int, seed int64, replicas int, kills bool) cell {
	servers := 2
	if replicas > 1 {
		// Three nodes with R=2: replica sets are proper subsets, so the
		// soak also exercises proxy-coordinated writes and non-member gets.
		servers = 3
	}
	var inj *fault.Injector
	var flooder *core.Client
	return cell{
		design: d.String(),
		spec: &spec{Config: cluster.Config{
			Design: d, Profile: cluster.ClusterA(), Servers: servers, Clients: 1,
			ReplicationFactor: replicas,
			ServerMem:         2 << 20, // 2 MB/server: the flood overcommits it
			StorageWorkers:    overWorkers, BufferBytes: overBufferBytes, Overload: admission(),
		}},
		drive: func(cl *cluster.Cluster, r *run) {
			inj = fault.New(fault.Config{Seed: seed, Drop: 0.005, Dup: 0.005, Spike: 0.01})
			cl.Fabric.SetFaults(inj)
			flooder = floodClient(cl)
			r.Log = &history.Log{Replicated: replicas > 1}
			ch := checkerChain("chaos", rounds, seed, replicas > 1, d.BufferGuarantee())
			r.spawnWriters(cl, cl.Clients[0], ch)
			r.spawnCounter(cl, cl.Clients[0], ch)
			// The flooder: bursts of large scratch-key sets, enough volume to
			// overcommit the servers' slab memory so every burst exercises
			// the hybrid eviction path and the admission watermarks.
			spawnFlood(cl, flooder, flood{
				ops: rounds * 16, burst: chaosFloodBurst, valueSize: chaosFloodValue, gap: chaosFloodGap,
				key: func(i int) string { return fmt.Sprintf("flood:%04d", i%chaosFloodKeys) },
			}, guard{
				deadline: 4 * sim.Millisecond, attempts: 2, seed: seed + 1,
				attempt: 2 * sim.Millisecond, backoff: 50 * sim.Microsecond, maxBackoff: sim.Millisecond,
			}.opts(false))
			if kills {
				spawnOutages(cl, nil, r.Log, nodeKills(200*sim.Microsecond)...)
			} else {
				// A warm crash early, a cold restart later, both of server 0.
				spawnOutages(cl, nil, r.Log,
					outage{3 * sim.Millisecond, 0, warmCrash, 300 * sim.Microsecond},
					outage{4 * sim.Millisecond, 0, coldCrash, 200 * sim.Microsecond})
			}
			start := cl.Env.Now()
			cl.Env.RunUntil(start + chaosLimit)
			r.Ops = int64(r.Log.Expected)
			// RunUntil fast-forwards the clock to its limit, so the soak's
			// real span is the last logged completion, not Env.Now.
			for _, e := range r.Log.Entries {
				r.Elapsed = max(r.Elapsed, e.CompletedAt-start)
			}
		},
		collect: func(_ *cluster.Cluster, r *run) {
			fs := flooder.Faults
			r.show("violations", "violations", r.check(false))
			r.show("entries", "entries", float64(len(r.Log.Entries)))
			r.show("acked-writes", "acked_writes", r.ackedWrites())
			r.plot("shed s/g", float64(r.ShedSets+r.ShedGets))
			r.set("shed_sets", float64(r.ShedSets))
			r.set("shed_gets", float64(r.ShedGets))
			r.set("rejected", float64(r.Rejected))
			r.set("discarded", float64(r.Discarded))
			r.show("busy", "busy", float64(r.Faults.Get("busy")+fs.Get("busy")))
			r.set("retries", float64(r.Faults.Get("retries")+fs.Get("retries")))
			r.set("breaker_open", float64(fs.Get("breaker-open")))
			r.show("recoveries", "recoveries", float64(r.Recoveries))
			r.set("inj_drops", float64(inj.Drops))
			r.set("elapsed_us", us(r.Elapsed))
		},
	}
}

// floodClient gives the flooder its own client node, so its breaker and
// retry state cannot leak into the checker's connections.
func floodClient(cl *cluster.Cluster) *core.Client {
	fc := core.New(cl.Env, cl.Fabric.AddNode("flooder"), core.Config{
		Transport:  core.RDMA,
		Breaker:    core.BreakerConfig{Threshold: 6, Cooldown: 500 * sim.Microsecond},
		Membership: cl.Membership, // nil when unreplicated
	})
	for _, srv := range cl.Servers {
		fc.ConnectRDMA(srv)
	}
	return fc
}

// chaos is the registry entry: the soak over the four hybrid designs. The
// headline number per design is violations, which must be zero.
var chaosExp = Experiment{
	ID: "chaos", Title: "Chaos soak: faults + crashes + overload under the history invariant checker",
	cells: func(o Options) (cells []cell) {
		for _, d := range hybrids {
			cells = append(cells, chaosCell(d, checkerRounds(o), 42, 0, false))
		}
		return cells
	},
}
