package bench

import (
	"fmt"

	"hybridkv/internal/cluster"
	"hybridkv/internal/fault"
	"hybridkv/internal/history"
	"hybridkv/internal/metrics"
	"hybridkv/internal/sim"
	"hybridkv/internal/workload"
)

// The membership experiment: dynamic membership under chaos, plus a scaling
// sweep.
//
// Part one reruns the chaos soak's checker workers — CAS-chain writers and
// a guarded counter, every operation logged into a history.Log — on a
// three-server R=2 cluster whose membership changes under them: two joins
// (the second with a whole-node kill of a migration source mid-flight) and
// one graceful decommission of an original member. Every transition is
// recorded as a rebalance window, and rebalance windows are NOT excuse
// windows: the checker enforces no-stale-read and no-lost-acked-write right
// through the resharding, which is the experiment's headline claim. After
// the churn settles, the server-side durability sweep counts lost acked
// keys — zero is the acceptance bar.
//
// Part two is the scaling sweep: static clusters of N ∈ {3,5,7,9} servers
// at R ∈ {1,2,3} drive a 90:10 read-heavy workload through windowed
// non-blocking clients (2 per server) and report aggregate goodput. The
// point of dynamic membership is that adding servers adds capacity; the
// sweep pins that goodput grows monotonically from 3 to 9 servers at every
// replication factor.

const (
	// memChaosLimit bounds the churn phase: an unfinished rebalance or a
	// wedged worker past this limit becomes a rebalance-stuck/liveness
	// violation instead of a hung benchmark.
	memChaosLimit = 500 * sim.Millisecond
	memSettle     = 10 * sim.Millisecond

	memScaleValue = 4 * 1024
	memScaleKeys  = 96 // per server
)

// churnCell drives the churn phase: checker workers on a 3-server R=2
// cluster through join ×2, a kill-during-migration, and a decommission,
// under link faults (seed drives the injector), then sweeps for lost acked
// writes. The writers are the chaos soak's, unchanged — the point is that
// the same workload that proves the invariants in steady state proves them
// across reshards. The history is checked at limit, so a rebalance or an
// operation still open there is a violation whatever the sweep's drain
// finishes later.
func churnCell(rounds int, seed int64, limit sim.Time) cell {
	return cell{
		prefix: "chaos.",
		spec: &spec{Config: cluster.Config{
			Design: cluster.HRDMAOptNonBB, Profile: cluster.ClusterA(), Servers: 3, Clients: 1,
			ServerMem:         8 << 20, // dataset fits: eviction never drops keys, the sweep oracle is exact
			ReplicationFactor: 2,
		}},
		drive: func(cl *cluster.Cluster, r *run) {
			cl.Fabric.SetFaults(fault.New(fault.Config{Seed: seed, Drop: 0.005, Dup: 0.005, Spike: 0.01}))
			r.Log = &history.Log{Replicated: true}
			// R=2: every replica holds each acked write, so failover is safe.
			ch := checkerChain("mem", rounds, seed, true, true)
			r.spawnWriters(cl, cl.Clients[0], ch)
			r.spawnCounter(cl, cl.Clients[0], ch)

			// The churn: join #1 (3 → 4 servers under live traffic); join #2
			// with a whole-node kill of a migration source mid-flight (the
			// joiner re-pulls until the victim cold-restarts and its suspect
			// keys reconfirm; the other replicas cover the overlap); and the
			// decommission of an original member, crashed by its watcher once
			// drained with no crash window: its death must be invisible.
			spawnSchedule(cl, nil, r.Log, []step{
				{after: 2 * sim.Millisecond, kind: join},
				{kind: settle},
				{after: sim.Millisecond, kind: join},
				{200 * sim.Microsecond, killRAM, 1, 300 * sim.Microsecond},
				{kind: settle},
				{after: sim.Millisecond, kind: decommission, target: 0},
				{kind: settle},
			})
			cl.Env.RunUntil(cl.Env.Now() + limit)
			r.Ops = int64(r.Log.Expected)
			r.check(false)

			cl.Env.Spawn("mem-sweep", func(p *sim.Proc) { r.sweepLostAcked(p, cl, memSettle, nil) })
			cl.Env.Run()
		},
		collect: func(_ *cluster.Cluster, r *run) {
			moved := float64(r.Repl.Val(metrics.CMigrateKeysMoved))
			r.set("violations", float64(len(r.Violations)))
			r.set("entries", float64(len(r.Log.Entries)))
			r.set("acked_keys", float64(r.AckedKeys))
			r.set("lost_acked", float64(r.LostAcked))
			r.set("rebalances", float64(len(r.Log.Rebalances)))
			r.set("moved_keys", moved)
			r.plotAt(r.cell.table, "churn", "violations", r.val("violations"))
			r.plotAt(r.cell.table, "churn", "lost acked", float64(r.LostAcked))
			r.plotAt(r.cell.table, "churn", "moved keys", moved)
			r.plotAt(r.cell.table, "churn", "rebalances", r.val("rebalances"))
			r.counts(r.Repl, metrics.CMigrateSeals, metrics.CMigrateManifests)
			r.set("double_reads", float64(r.Repl.Val(metrics.CMigrateDoubleReads)))
			r.set("read_redirects", float64(r.Repl.Val(metrics.CMigrateReadRedirects)))
			r.set("gc_keys", float64(r.Repl.Val(metrics.CMigrateGCKeys)))
			r.counts(r.Repl, metrics.CForwards)
			r.counts(r.Clients, metrics.CEpochInvalidations, metrics.CRetiredConns)
		},
	}
}

// scaleCell is one scaling cell: a static cluster of servers nodes at
// replication factor, 2 clients per server pipelining a 90:10 read-heavy mix
// in windows of 32, reporting aggregate goodput in kops. The span is the
// last client's completion, not the Env drain — at R ≥ 2 the anti-entropy
// scrubber keeps ticking after the load stops, and counting that tail would
// charge replication for idle time.
func scaleCell(servers, factor, totalOps int) cell {
	clients := 2 * servers
	sp := &spec{Config: cluster.Config{
		Design: cluster.HRDMAOptNonBB, Profile: cluster.ClusterA(), Servers: servers, Clients: clients,
		ServerMem: 8 << 20, ReplicationFactor: factor,
	}, keys: memScaleKeys * servers, kv: memScaleValue}
	name := fmt.Sprintf("R%d.N%d", factor, servers)
	return cell{
		prefix: "scale." + name + ".", row: name, table: "scaling", spec: sp,
		drive: func(cl *cluster.Cluster, r *run) {
			driveThroughput(cl, func(ci int) *workload.Generator { return sp.gen(uniform(0.9, int64(300+ci))) },
				max(32, totalOps/clients), 32, r)
		},
		collect: func(_ *cluster.Cluster, r *run) {
			r.show("goodput kops", "kops", metrics.Throughput(r.Ops, r.Last)/1000)
		},
	}
}

// membership is the registry entry.
var membershipExp = Experiment{
	ID: "membership", Title: "Dynamic membership: join/decommission under chaos, zero acked-write loss, and the scaling sweep",
	cells: func(o Options) []cell {
		cells := []cell{churnCell(checkerRounds(o), 42, memChaosLimit)}
		// Scaling sweep: op/s vs node count at every factor.
		for _, factor := range []int{1, 2, 3} {
			for _, n := range []int{3, 5, 7, 9} {
				cells = append(cells, scaleCell(n, factor, o.ops(4800)))
			}
		}
		return cells
	},
	// Goodput must grow monotonically 3 → 9 servers at every factor.
	derive: func(v func(string) float64, h *run) {
		for _, factor := range []int{1, 2, 3} {
			prev, monotone := 0.0, true
			for _, n := range []int{3, 5, 7, 9} {
				kops := v(fmt.Sprintf("scale.R%d.N%d.kops", factor, n))
				monotone = monotone && kops > prev
				prev = kops
			}
			h.set(fmt.Sprintf("scale.R%d.monotonic", factor), boolMetric(monotone))
		}
	},
}
