package bench

import (
	"hybridkv/internal/cluster"
	"hybridkv/internal/core"
	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
	"hybridkv/internal/workload"
)

// This file is the cold-restart recovery experiment: a mid-run power cycle
// of the (single) server with torn-write injection armed on its SSD, across
// the four hybrid designs. Measured per cell: the recovery scan's virtual
// time, what the scan found (pages recovered / discarded as torn or
// uncommitted), the post-recovery hit ratio against a clean twin run, and a
// zero-corruption assertion — every Get that hits after recovery must return
// exactly the value last written for its key, torn writes notwithstanding.

// Recovery experiment knobs. The geometry is deliberately small (24 MB RAM,
// 1.5x overcommit) so the SSD scan finishes well inside the op deadline and
// guarded requests issued during the outage can ride it out via retries.
const (
	recoveryMem      = 24 << 20
	recoveryKV       = 32 * 1024
	recoveryKeys     = recoveryMem * 3 / 2 / recoveryKV
	recoveryDeadline = 64 * sim.Millisecond
	// recoveryColdGap is how long the machine stays dark between the crash
	// and the cold restart that kicks off the recovery scan.
	recoveryColdGap = 2 * sim.Millisecond
	// recoveryTornProb tears this fraction of SSD write commands: only a
	// sector-aligned prefix of the command persists across the power cycle.
	recoveryTornProb = 0.2
)

// recoveryPhase executes one run on a fresh cluster: preload (value == key,
// so every later hit is checkable), a main phase of ops mixed operations of
// w, and a verify sweep over every key. crashAt > 0 power-cycles the server
// that far into the main phase, with torn writes armed from preload on.
// Elapsed covers the main phase only (the verify sweep is excluded so clean
// and crashed elapsed are comparable). It returns the verify sweep's hit
// ratio and the number of corrupt reads: hits whose value differs from the
// value written for that key — the crash-consistency assertion.
func recoveryPhase(cl *cluster.Cluster, w workload.Config, ops int, crashAt sim.Time, r *run) (hitRatio float64, corrupt int64) {
	srv, c := cl.Servers[0], cl.Clients[0]
	if crashAt > 0 {
		for i, dev := range cl.Devices {
			dev.SetTornWrites(int64(1000+i), recoveryTornProb)
		}
	}
	// Idempotent preload: the value for keyOf(i) is always keyOf(i), so a
	// recovered value is correct iff it equals its key — stale or torn data
	// surfacing after recovery is directly observable.
	cl.Env.Spawn("preload", func(p *sim.Proc) {
		for i := 0; i < recoveryKeys; i++ {
			c.Set(p, keyOf(i), recoveryKV, keyOf(i), 0, 0)
		}
	})
	cl.Env.Run()
	cl.SettleIO()

	w.Keys, w.ValueSize = recoveryKeys, recoveryKV
	gen := workload.New(w)
	opts := guard{
		deadline: recoveryDeadline, attempts: 12, seed: 99,
		backoff: 500 * sim.Microsecond, maxBackoff: 6 * sim.Millisecond, jitter: true,
	}.opts(cl.Design.BufferGuarantee())
	start := cl.Env.Now()
	if crashAt > 0 {
		cl.Env.AtFunc(start+crashAt, func() {
			srv.Crash()
			cl.Env.AfterFunc(recoveryColdGap, srv.RestartCold)
		})
	}
	var hits int64
	cl.Env.Spawn("drv-recovery", func(p *sim.Proc) {
		for i := 0; i < ops; i++ {
			kind, key := gen.Next()
			req := do(p, c, opFor(kind, key, recoveryKV), opts)
			r.classify(req.Err())
			if req.Err() == nil && req.Op == protocol.OpGet && req.Value != any(key) {
				corrupt++
			}
		}
		r.Elapsed = p.Now() - start
		// Let any in-flight outage drain, then sweep every key: the hit
		// ratio measures what the crash cost, the value check that nothing
		// torn or uncommitted is served.
		for srv.Down() || srv.Recovering() {
			p.Sleep(sim.Millisecond)
		}
		for i := 0; i < recoveryKeys; i++ {
			k := keyOf(i)
			if req := do(p, c, core.Op{Code: protocol.OpGet, Key: k}, opts); req.Err() == nil {
				hits++
				if req.Value != any(k) {
					corrupt++
				}
			}
		}
	})
	cl.Env.Run()
	r.Ops = int64(ops)
	return float64(hits) / recoveryKeys, corrupt
}

// recoveryCell is one design × access pattern: a clean run and a twin with
// a power cycle under torn writes halfway through the clean run's span.
func recoveryCell(d cluster.Design, w workload.Config, ops int) cell {
	sp := &spec{Config: cluster.Config{Design: d, Profile: cluster.ClusterA(), ServerMem: recoveryMem}}
	var cleanHit, postHit float64
	var corrupt int64
	return cell{
		design: d.String(), prefix: w.Pattern.String() + ".", spec: sp,
		// The clean twin runs first, on a cluster of its own; the cell's
		// cluster — the one the runner gathers — takes the crash.
		drive: func(cl *cluster.Cluster, r *run) {
			clean := newRun(nil)
			hit, bad := recoveryPhase(sp.build(), w, ops, 0, clean)
			cleanHit, corrupt = hit, bad
			postHit, bad = recoveryPhase(cl, w, ops, clean.Elapsed/2, r)
			corrupt += bad
		},
		collect: func(cl *cluster.Cluster, r *run) {
			srv := cl.Servers[0]
			rep := srv.LastRecovery
			r.show("recovery ms", "recovery_ms", ms(srv.RecoveryTime))
			r.show("pages scan", "pages_scanned", float64(rep.PagesScanned))
			r.show("pages ok", "pages_recovered", float64(rep.PagesRecovered))
			r.show("pages drop", "pages_discarded", float64(rep.PagesDiscarded))
			r.plot("clean hit%", 100*cleanHit)
			r.plot("post hit%", 100*postHit)
			r.plot("failed", float64(r.Failed))
			r.plot("corrupt", float64(corrupt))
			r.set("pages_torn", float64(rep.PagesTorn))
			r.set("pages_uncommitted", float64(rep.PagesUncommitted))
			r.set("items_recovered", float64(rep.ItemsRecovered))
			r.set("clean_hit_ratio", cleanHit)
			r.set("post_hit_ratio", postHit)
			// rejected counts server-side StatusRecovering answers,
			// recovering_retries the client-side retries they triggered.
			r.set("rejected", float64(r.Rejected))
			r.set("recovering_retries", float64(r.Faults.Get("recovering")))
			r.set("failed", float64(r.Failed))
			r.set("corrupt_reads", float64(corrupt))
		},
	}
}

// recovery is the registry entry: each hybrid design × access pattern,
// contrasting recovery time, scan outcome, and hit-ratio cost.
var recoveryExp = Experiment{
	ID: "recovery", Title: "Cold-restart recovery: crash consistency under torn writes",
	cells: func(o Options) (cells []cell) {
		_, _, opsDef := o.geometry()
		ops := o.ops(opsDef / 2)
		for _, d := range hybrids {
			cells = append(cells, recoveryCell(d, uniform(0.5, 7), ops), recoveryCell(d, zipf(0.5, 7), ops))
		}
		return cells
	},
}
