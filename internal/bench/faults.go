package bench

import (
	"hybridkv/internal/cluster"
	"hybridkv/internal/core"
	"hybridkv/internal/fault"
	"hybridkv/internal/sim"
	"hybridkv/internal/workload"
)

// This file is the degraded-mode experiment family: the same six designs,
// measured twice — once clean and once under a fault schedule (message
// drops/dups/latency spikes, a server crash window, SSD read errors) — with
// the client's deadline/retry/failover machinery armed. The contrast is
// tail latency and goodput, not means: a lossy fabric moves p99, not p50.

// The degraded-mode mix of a faulted phase: 1% drops, 0.5% dups, 1% latency
// spikes of 100 µs, server 0 down for 4 ms early in the phase, and 0.5% SSD
// read errors, every injector seeded from faultSeed. A clean phase injects
// nothing anywhere.
const (
	faultSeed       = 42
	faultDrop       = 0.01
	faultDup        = 0.005
	faultSpike      = 0.01
	faultCrashFrom  = 2 * sim.Millisecond
	faultCrashTo    = 6 * sim.Millisecond
	faultSSDReadErr = 0.005
)

// Client-side recovery policy, armed for every phase (clean and faulted).
const (
	faultDeadline = 32 * sim.Millisecond
	faultWindow   = 32 // in-flight window for non-blocking designs
)

// faultCell is one phase: design d on a two-server deployment (so failover
// has somewhere to go) of mem aggregate memory preloaded with dataBytes,
// driven for ops operations of w, clean or faulted.
func faultCell(d cluster.Design, mem, dataBytes int64, kv, ops int, w workload.Config, faulted bool) cell {
	sp := &spec{Config: cluster.Config{
		Design: d, Profile: cluster.ClusterA(), Servers: 2, Clients: 1,
		ServerMem: mem / 2,
	}, keys: int(dataBytes / int64(kv)), kv: kv}
	return cell{design: d.String(), row: d.String(), spec: sp, drive: func(cl *cluster.Cluster, r *run) {
		driveFaulted(cl, sp.gen(w), ops, faulted, r)
	}}
}

// driveFaulted executes ops operations on client 0. A faulted phase arms the
// fabric injector, the server-0 crash window, and SSD error injection at
// the start of the measurement phase; either way every design issues under
// the same deadline/retry policy so no fault can wedge the run (the socket
// reads its receive timeout and resend budget off it: 8 ms, 3 resends):
// blocking designs one op at a time under the web-caching miss contract,
// non-blocking designs in pipelined windows. In a clean phase the op path is
// virtual-time-identical to the no-fault drivers (guards and timeout arms
// never fire), so clean numbers match the other experiments exactly.
func driveFaulted(cl *cluster.Cluster, gen *workload.Generator, ops int, faulted bool, r *run) {
	var seed int64
	if faulted {
		seed = faultSeed
		start := cl.Env.Now()
		cl.Fabric.SetFaults(fault.New(fault.Config{
			Seed: seed, Drop: faultDrop, Dup: faultDup, Spike: faultSpike,
		}))
		cl.Servers[0].ScheduleCrash(start+faultCrashFrom, start+faultCrashTo)
		for i, dev := range cl.Devices {
			dev.SetFaults(seed+int64(i)+1, faultSSDReadErr, 0)
		}
	}
	opts := guard{
		deadline: faultDeadline, attempts: 4, seed: seed, failover: len(cl.Servers) > 1,
		backoff: 5 * sim.Microsecond, maxBackoff: sim.Millisecond, jitter: true,
	}.opts(cl.Design.BufferGuarantee())
	phase(cl, ops, r, func(p *sim.Proc, c *core.Client) {
		byDesign(p, cl, c, gen, ops, faultWindow, opts, r)
	})
	cl.Fabric.SetFaults(nil)
}

// faults is the registry entry: every design, clean vs faulted phase on
// fresh clusters, reporting p50/p99 latency, goodput, and recovery counts.
var faultsExp = Experiment{
	ID: "faults", Title: "Degraded mode: tail latency and goodput under a fault schedule",
	cells: func(o Options) (cells []cell) {
		mem, kv, opsDef := o.geometry()
		ops := o.ops(opsDef / 2)
		dataBytes := mem * 3 / 2 // overcommit: SSD paths (and their faults) in play
		for _, d := range cluster.Designs {
			clean := faultCell(d, mem, dataBytes, kv, ops, zipf(0.5, 7), false)
			clean.prefix = "clean_"
			clean.collect = func(_ *cluster.Cluster, r *run) {
				r.show("clean p50µs", "p50_us", us(r.Lat.Quantile(0.50)))
				r.show("clean p99µs", "p99_us", us(r.Lat.Quantile(0.99)))
				r.show("clean op/s", "goodput", r.goodput())
				r.set("failed", float64(r.Failed))
				r.counts(r.Faults, "retries")
			}
			faulted := faultCell(d, mem, dataBytes, kv, ops, zipf(0.5, 7), true)
			faulted.collect = func(_ *cluster.Cluster, r *run) {
				r.show("fault p50µs", "fault_p50_us", us(r.Lat.Quantile(0.50)))
				r.show("fault p99µs", "fault_p99_us", us(r.Lat.Quantile(0.99)))
				r.show("fault op/s", "fault_goodput", r.goodput())
				r.show("retries", "fault_retries", float64(r.Faults.Get("retries")))
				r.show("timeouts", "fault_timeouts", float64(r.Faults.Get("timeouts")))
				r.show("failed", "fault_failed", float64(r.Failed))
				r.set("fault_failovers", float64(r.Faults.Get("failovers")))
				r.set("net_dropped", float64(r.Dropped))
			}
			cells = append(cells, clean, faulted)
		}
		return cells
	},
}
