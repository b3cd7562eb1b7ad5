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

// faultSchedule configures one degraded-mode phase. The zero value is a
// clean run (no injection anywhere).
type faultSchedule struct {
	// Seed drives every injector RNG in the phase.
	Seed int64
	// Drop / Dup / Spike are per-message fabric fault probabilities.
	Drop, Dup, Spike float64
	// SpikeDelay is the extra latency of a spiked message.
	SpikeDelay sim.Time
	// CrashFrom / CrashTo crash server 0 for [From, To) relative to the
	// start of the measurement phase (CrashTo ≤ CrashFrom disables).
	CrashFrom, CrashTo sim.Time
	// SSDReadErr / SSDWriteErr are per-command SSD I/O error probabilities.
	SSDReadErr, SSDWriteErr float64
}

// defaultFaults is the standard degraded-mode mix: 1% drops, 0.5% dups, 1%
// latency spikes of 100 µs, server 0 down for 4 ms early in the phase, and
// 0.5% SSD read errors.
func defaultFaults() faultSchedule {
	return faultSchedule{
		Seed:       42,
		Drop:       0.01,
		Dup:        0.005,
		Spike:      0.01,
		SpikeDelay: 100 * sim.Microsecond,
		CrashFrom:  2 * sim.Millisecond,
		CrashTo:    6 * sim.Millisecond,
		SSDReadErr: 0.005,
	}
}

// Client-side recovery policy, armed for every phase (clean and faulted).
const (
	faultDeadline    = 32 * sim.Millisecond
	faultWindow      = 32 // in-flight window for non-blocking designs
	ipoibRecvTimeout = 8 * sim.Millisecond
	ipoibRecvRetries = 3
)

// socketRecovery is the socket design's whole recovery story: a receive
// timeout and a resend budget in the client config.
func socketRecovery(d cluster.Design) core.Config {
	if d.Transport() == core.IPoIB {
		return core.Config{RecvTimeout: ipoibRecvTimeout, RecvRetries: ipoibRecvRetries}
	}
	return core.Config{}
}

// faultCell is one phase: design d on a two-server deployment (so failover
// has somewhere to go) of mem aggregate memory preloaded with dataBytes,
// driven for ops operations of w under sched.
func faultCell(d cluster.Design, mem, dataBytes int64, kv, ops int, w workload.Config, sched faultSchedule) cell {
	sp := &spec{Config: cluster.Config{
		Design: d, Profile: cluster.ClusterA(), Servers: 2, Clients: 1,
		ServerMem: mem / 2, Client: socketRecovery(d),
	}, keys: int(dataBytes / int64(kv)), kv: kv}
	return cell{design: d.String(), row: d.String(), spec: sp, drive: func(cl *cluster.Cluster, r *run) {
		driveFaulted(cl, sp.gen(w), ops, sched, r)
	}}
}

// driveFaulted executes ops operations on client 0 under sched. It arms the
// fabric injector, the server-0 crash window, and SSD error injection at
// the start of the measurement phase, and uses the deadline/retry client
// API so no fault can wedge the run: blocking designs one op at a time
// under the web-caching miss contract, non-blocking designs in pipelined
// windows. With an empty schedule the op path is virtual-time-identical to
// the no-fault drivers (guards and timeout arms never fire), so clean
// numbers match the other experiments exactly.
func driveFaulted(cl *cluster.Cluster, gen *workload.Generator, ops int, sched faultSchedule, r *run) {
	start := cl.Env.Now()
	if sched != (faultSchedule{}) {
		cl.Fabric.SetFaults(fault.New(fault.Config{
			Seed: sched.Seed, Drop: sched.Drop, Dup: sched.Dup,
			Spike: sched.Spike, SpikeDelay: sched.SpikeDelay,
		}))
		if sched.CrashTo > sched.CrashFrom {
			cl.Servers[0].ScheduleCrash(start+sched.CrashFrom, start+sched.CrashTo)
		}
		if sched.SSDReadErr > 0 || sched.SSDWriteErr > 0 {
			for i, dev := range cl.Devices {
				dev.SetFaults(sched.Seed+int64(i)+1, sched.SSDReadErr, sched.SSDWriteErr)
			}
		}
	}
	// The RDMA designs use the Issue API armed with deadline + retry +
	// failover; the socket design has only the blocking API.
	opts := guard{
		deadline: faultDeadline, attempts: 4, seed: sched.Seed, failover: len(cl.Servers) > 1,
		backoff: 5 * sim.Microsecond, maxBackoff: sim.Millisecond, jitter: true,
	}.opts(cl.Design.BufferGuarantee())
	if cl.Design.Transport() == core.IPoIB {
		opts = nil
	}
	phase(cl, ops, r, func(p *sim.Proc, c *core.Client) {
		if cl.Design.NonBlocking() {
			pipelined(p, c, gen, ops, faultWindow, opts, r)
		} else {
			oneAtATime(p, cl, c, gen, ops, opts, r)
		}
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
			clean := faultCell(d, mem, dataBytes, kv, ops, zipf(0.5, 7), faultSchedule{})
			clean.prefix = "clean_"
			clean.collect = func(_ *cluster.Cluster, r *run) {
				r.show("clean p50µs", "p50_us", us(r.Lat.Quantile(0.50)))
				r.show("clean p99µs", "p99_us", us(r.Lat.Quantile(0.99)))
				r.show("clean op/s", "goodput", r.goodput())
				r.set("failed", float64(r.Failed))
				r.counts(r.Faults, "retries")
			}
			faulted := faultCell(d, mem, dataBytes, kv, ops, zipf(0.5, 7), defaultFaults())
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
