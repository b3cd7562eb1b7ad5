package bench

import (
	"fmt"

	"hybridkv/internal/cluster"
	"hybridkv/internal/core"
	"hybridkv/internal/fault"
	"hybridkv/internal/history"
	"hybridkv/internal/metrics"
	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
)

// The gray-failure experiment: one limping server out of five at R=2. The
// node does not crash — its storage workers stall on every dequeue and its
// links pay a size-proportional degradation — so error-count breakers see
// nothing while every request routed through it eats the slow path. Cells layer
// the defenses: no defense, latency-aware brown-out routing
// (core.Config.Health), brown-out plus background-traffic pacing
// (replication.Config.Pacer), and a crash cell where the browned node also
// cold-dies mid-run to prove deprioritization never masks a real failure
// from the breaker/failover path. Throughout, CAS-chain writers run under
// the history invariant checker and an open-loop driver measures
// admitted-GET latency; the headline claim is that with defenses up the
// measured p99 stays within 3x the all-healthy baseline while violations
// and lost acked writes stay zero.

const (
	grayServers  = 5
	graySlowID   = 1 // the limping server
	grayReplicas = 2

	grayKeys      = 256
	grayValueSize = 4 * 1024

	// Client guard: chaos-grade budgets, plus a hedge so the adaptive
	// threshold (hedgeAfter) is exercised once health tracking is live.
	grayDeadline    = 40 * sim.Millisecond
	grayMaxAttempts = 6
	grayHedge       = 2 * sim.Millisecond

	// Open-loop GET arrivals: steady, no bursts — the tail under test is
	// the slow node's, not the admission layer's.
	grayGetGap = 30 * sim.Microsecond

	// Worker pool per server: deep enough that a healthy coordinator's
	// GETs do not queue behind chain writes blocked on the slow replica's
	// ack — that head-of-line coupling is real but is the deployment's
	// sizing problem; the routing defense under test cannot reorder a
	// correctness-mandated forward.
	grayWorkers = 6

	// Fail-slow magnitudes on the limping node. Each alone is survivable;
	// together a request through the node costs ~10x a healthy one —
	// classic gray failure, far below any timeout.
	grayStall    = 250 * sim.Microsecond
	grayNetFloor = 30 * sim.Microsecond
	grayNetPerKB = 3 * sim.Microsecond

	// Schedule, relative to measurement start (after preload): fail-slow
	// onset, the start of the measured-GET window (the gap is detector
	// warmup — the health tracker's minimum samples must accumulate before
	// brown-out can trip), the
	// crash instant for the crash cell, the first foreground write burst
	// (after the GET window so the pacer contrast does not pollute the
	// measured tail), and the run bound.
	graySlowOnset   = 2 * sim.Millisecond
	grayMeasureFrom = 8 * sim.Millisecond
	grayCrashAt     = 12 * sim.Millisecond
	grayBurstAt     = 22 * sim.Millisecond
	grayLimit       = 200 * sim.Millisecond

	// Foreground write bursts: enough in-flight bytes to cross the
	// admission buffer watermark on several coordinators, so armed
	// anti-entropy scrub rounds observe foregroundBusy and — with the
	// pacer on — defer instead of competing.
	grayBursts     = 3
	grayBurstOps   = 64
	grayBurstValue = 8 * 1024
	grayBurstGap   = 2 * sim.Millisecond
)

// grayDefense is one experiment cell: which faults are injected and which
// defenses are armed.
type grayDefense struct {
	name   string
	slow   bool // inject the fail-slow schedule on server graySlowID
	health bool // latency-aware health scoring + brown-out routing
	pacing bool // token-bucket pacer on scrub/migration pulls
	crash  bool // cold-kill the slow node mid-run (failover proof)
}

// grayCell runs one cell: a 5-server R=2 NonB-b cluster, CAS-chain writers
// under the history checker for rounds rounds, and gets open-loop
// admitted GETs; seed drives the link injector and the retry jitter.
func grayCell(rounds, gets int, seed int64, def grayDefense) cell {
	sp := &spec{Config: cluster.Config{
		Design: cluster.HRDMAOptNonBB, Profile: cluster.ClusterA(), Servers: grayServers, Clients: 1,
		ReplicationFactor: grayReplicas,
		ServerMem:         4 << 20, // dataset fits: the tail under test is the slow node's, not eviction's
		StorageWorkers:    grayWorkers, BufferBytes: overBufferBytes, Overload: true,
		Breaker: overBreaker, Health: def.health, Pacer: def.pacing,
	}, keys: grayKeys, kv: grayValueSize}
	var inj *fault.Injector
	return cell{
		prefix: def.name + ".", spec: sp,
		drive: func(cl *cluster.Cluster, r *run) {
			c := cl.Clients[0]
			start := cl.Env.Now()
			if def.slow {
				from, to := start+graySlowOnset, start+grayLimit
				cl.Servers[graySlowID].AddWorkerStall(from, to, grayStall)
				inj = fault.New(fault.Config{Seed: seed})
				inj.AddSlow(fmt.Sprintf("server%d", graySlowID), from, to, grayNetFloor, grayNetPerKB)
				cl.Fabric.SetFaults(inj)
			}

			// Writers: per-key CAS chains, exactly the chaos soak's
			// evidence discipline. NonB-b: BufferAck marks the writes the
			// acked-write-lost invariant holds.
			r.Log = &history.Log{Replicated: true}
			g := guard{deadline: grayDeadline, attempts: grayMaxAttempts, seed: seed, failover: true}
			r.spawnWriters(cl, c, &chain{
				ns: "gray", writers: 2, keysPer: 4, rounds: rounds,
				valueSize: grayValueSize, think: 80 * sim.Microsecond,
				get: g.opts(false), set: g.opts(true),
			})

			// Open-loop GET driver. Only GETs issued after grayMeasureFrom
			// count — the warmup gap is the detector's sample budget,
			// identical across cells so the comparison stays fair.
			g.hedge = grayHedge
			spawnArrivals(cl, c, arrivals{
				n:    gets,
				op:   func(i int) core.Op { return core.Op{Code: protocol.OpGet, Key: keyOf(i % grayKeys)} },
				gap:  grayGetGap,
				from: start + grayMeasureFrom,
			}, g.opts(false), r)

			// Foreground bursts: open-loop scratch SETs that spike buffer
			// occupancy past the watermark while the writers keep scrubs
			// armed.
			spawnFlood(cl, c, flood{
				ops: grayBursts * grayBurstOps, burst: grayBurstOps, valueSize: grayBurstValue,
				after: grayBurstAt, gap: grayBurstGap,
				key: func(i int) string { return fmt.Sprintf("burst:%03d", i) },
			}, []core.IssueOption{core.WithDeadline(4 * sim.Millisecond)})

			// Crash cell: the browned node cold-dies mid-measurement, dead
			// long enough that writes chained through it (and probe GETs)
			// run into their attempt timeouts and must fail over. Brown-out
			// must not mask it — the breaker trips, GETs fail over, and
			// recovery rejoins the node (still limping) behind the usual
			// crash excuse.
			if def.crash {
				spawnSchedule(cl, nil, r.Log, []step{{grayCrashAt, killRAM, graySlowID, 3 * sim.Millisecond}})
			}
			cl.Env.RunUntil(start + grayLimit)
		},
		collect: func(cl *cluster.Cluster, r *run) {
			p99 := us(r.GetLat.Quantile(0.99))
			r.show("get p99 µs", "get_p99_us", p99)
			r.show("get p50 µs", "get_p50_us", us(r.GetLat.Quantile(0.5)))
			r.set("gets_measured", float64(r.OK))
			r.set("gets_failed", float64(r.Misses+r.Failed))
			r.show("violations", "violations", r.check(false))
			r.set("acked_writes", r.ackedWrites())
			r.show("brownouts", "brownouts_entered", float64(r.Clients.Val(metrics.CBrownoutsEntered)))
			r.show("slow-routed", "slow_routed_gets", float64(r.Clients.Val(metrics.CSlowRoutedGets)))
			r.counts(r.Clients, metrics.CBrownoutsExited, metrics.CHealthSamples, metrics.CHedges,
				metrics.CFailovers, metrics.CBreakerOpen)
			r.show("pacer-defer", "pacer_deferrals", float64(r.Repl.Val(metrics.CPacerDeferrals)))
			// Injection ground truth: the faults actually fired.
			slowed := int64(0)
			if inj != nil {
				slowed = inj.Slowed
			}
			r.set("net_slowed", float64(slowed))
			r.set("worker_stalls", float64(cl.Servers[graySlowID].Stalled))
		},
	}
}

// grayDefenses are grayfail's cells: the all-healthy baseline, then the
// limping node undefended, defended, and defended while it crashes.
var grayDefenses = []grayDefense{
	{name: "healthy"},
	{name: "nodefense", slow: true},
	{name: "brownout", slow: true, health: true},
	{name: "brownout+pacing", slow: true, health: true, pacing: true},
	{name: "crash", slow: true, health: true, pacing: true, crash: true},
}

// grayfail is the registry entry. The headline metrics: with brown-out
// routing and pacing up, admitted-GET p99 stays within 3x the all-healthy
// baseline (p99_bound_ok), violations stay zero in every cell, and the
// crash cell still fails over (failovers > 0) despite the node being
// browned when it died.
var grayfailExp = Experiment{
	ID: "grayfail", Title: "Gray failure: fail-slow node, brown-out routing, background pacing",
	cells: func(o Options) (cells []cell) {
		ops := o.ops(300)
		// Writers must still be running when the crash cell kills the slow
		// node (grayCrashAt) — rounds are sized so the CAS chains span the
		// whole measured window, not just its head.
		rounds := max(16, ops/3)
		for _, def := range grayDefenses {
			cells = append(cells, grayCell(rounds, ops*2, 42, def))
		}
		return cells
	},
	// Headline ratios against the all-healthy baseline.
	derive: func(v func(string) float64, h *run) {
		healthy, defended := v("healthy.get_p99_us"), v("brownout+pacing.get_p99_us")
		h.set("nodefense_over_healthy", v("nodefense.get_p99_us")/healthy)
		h.set("defended_over_healthy", defended/healthy)
		h.set("p99_bound_ok", boolMetric(defended <= 3*healthy))
	},
}
