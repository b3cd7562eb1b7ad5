package bench

import (
	"fmt"
	"hybridkv/internal/metrics"

	"hybridkv/internal/cluster"
	"hybridkv/internal/sim"
	"hybridkv/internal/workload"
)

// The replication experiment: a three-server cluster at replication factor
// R ∈ {1, 2, 3} runs a read-only and a 50:50 workload through a node-kill
// schedule — one server loses its RAM mid-run, another later loses RAM and
// SSD both — and the run reports goodput, p99 latency, repair traffic, and
// the headline durability number: lost acked writes, counted by the
// server-side sweep of actors.go after the cluster settles. At R=1 the
// kills make that count strictly positive (whatever the dead node
// exclusively held is gone); at R ≥ 2 it must be exactly zero — every acked
// write was applied by every replica before the client saw the ack, and a
// cold-restarted node re-confirms or re-fetches its keys from the
// survivors.

const (
	replServers   = 3
	replKeys      = 96
	replValueSize = 4 * 1024
	replDeadline  = 60 * sim.Millisecond
	replThink     = 100 * sim.Microsecond
	// replSettle is how long the cluster idles after the driver finishes
	// before the durability sweep.
	replSettle = 10 * sim.Millisecond
)

// replicationCell is one cell: preload every key (seq 1), drive ops mixed
// operations under a retry guard with failover, optionally kill two nodes
// mid-run, then settle and sweep. factor ≤ 1 runs unreplicated — with
// kills=false such a run must be virtual-time-identical to the same driver
// on a cluster built with ReplicationFactor 0.
func replicationCell(factor int, readFrac float64, ops int, kills bool) cell {
	sp := &spec{Config: cluster.Config{
		Design: cluster.HRDMAOptNonBB, Profile: cluster.ClusterA(), Servers: replServers, Clients: 1,
		ServerMem:         8 << 20, // dataset fits: eviction never drops keys, so the sweep oracle is exact
		ReplicationFactor: factor,
	}}
	return cell{spec: sp, drive: func(cl *cluster.Cluster, r *run) {
		c := cl.Clients[0]
		w := uniform(readFrac, 11)
		w.Keys, w.ValueSize = replKeys, replValueSize
		gen := workload.New(w)
		r.preloadSeq(cl, c, gen, replKeys, nil)
		opts := guard{deadline: replDeadline, attempts: 8, seed: 13, failover: true}.opts(true)
		if kills {
			spawnSchedule(cl, nil, nil, nodeKills(300*sim.Microsecond))
		}
		cl.Env.Spawn("repl-driver", func(p *sim.Proc) {
			r.seqLoop(p, c, gen, ops, opts, replThink, nil)
			r.sweepLostAcked(p, cl, replSettle, nil)
		})
		cl.Env.Run()
	}}
}

// replication is the registry entry: R ∈ {1,2,3} × {read-only, 50:50}
// through the node-kill schedule. The headline: lost_acked is positive at
// R=1 (the kills destroy data only one node held) and exactly zero for
// every R ≥ 2 cell.
var replicationExp = Experiment{
	ID: "replication", Title: "Primary-backup replication: acked-write durability under whole-node kills",
	cells: func(o Options) (cells []cell) {
		for _, factor := range []int{1, 2, 3} {
			for _, mix := range []mix{{"read", 1.0}, {"rw50", 0.5}} {
				c := replicationCell(factor, mix.read, o.ops(600), true)
				c.prefix = fmt.Sprintf("R%d.%s.", factor, mix.name)
				c.collect = func(_ *cluster.Cluster, r *run) {
					r.show("goodput op/s", "goodput_ops", opsPerSec(r.OK, r.Elapsed))
					r.show("p99 µs", "p99_us", us(r.Lat.Quantile(0.99)))
					r.set("ok", float64(r.OK))
					r.set("misses", float64(r.Misses))
					r.set("failed", float64(r.Failed))
					r.set("acked_keys", float64(r.AckedKeys))
					r.show("lost acked", "lost_acked", float64(r.LostAcked))
					r.plot("repair tx", float64(r.Repl.Val(metrics.CRepairPushes)+r.Repl.Val(metrics.CRepairPulls)))
					r.counts(r.Repl, metrics.CForwards, metrics.CRepairPushes, metrics.CRepairPulls,
						metrics.CEpochConflicts, metrics.CStaleReadsPrevented, metrics.CScrubRounds)
					r.counts(r.Clients, metrics.CFailovers, metrics.CFailoverSkip)
				}
				cells = append(cells, c)
			}
		}
		return cells
	},
}
