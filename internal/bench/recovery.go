package bench

import (
	"errors"
	"fmt"

	"hybridkv/internal/cluster"
	"hybridkv/internal/core"
	"hybridkv/internal/hybridslab"
	"hybridkv/internal/metrics"
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
	recoveryDeadline = 64 * sim.Millisecond
	recoveryAttempt  = 8 * sim.Millisecond
	// recoveryColdGap is how long the machine stays dark between the crash
	// and the cold restart that kicks off the recovery scan.
	recoveryColdGap = 2 * sim.Millisecond
	// recoveryTornProb tears this fraction of SSD write commands: only a
	// sector-aligned prefix of the command persists across the power cycle.
	recoveryTornProb = 0.2
)

// RecoveryRun summarizes one (clean or crashed) recovery-experiment run.
type RecoveryRun struct {
	// Main-phase op outcomes (Ops = OK + Misses + Failed).
	Ops, OK, Misses, Failed int64
	// CorruptReads counts hits whose value differs from the value written
	// for that key — the crash-consistency assertion; must stay zero.
	CorruptReads int64
	// VerifyHits / VerifyOps are the post-recovery sweep over every key.
	VerifyHits, VerifyOps int64
	// Elapsed covers the main phase only (the verify sweep is excluded so
	// clean and crashed elapsed are comparable).
	Elapsed sim.Time
	// Rejected counts server-side StatusRecovering answers; Nudges the
	// client-side retries they triggered.
	Rejected, Nudges int64
	// Report / RecoveryTime are the server's cold-restart scan results.
	Report       hybridslab.RecoveryReport
	RecoveryTime sim.Time
}

// HitRatio is the post-recovery verify-sweep hit ratio.
func (r *RecoveryRun) HitRatio() float64 {
	if r.VerifyOps == 0 {
		return 0
	}
	return float64(r.VerifyHits) / float64(r.VerifyOps)
}

// runRecovery executes one recovery-experiment run: preload (value == key,
// so every later hit is checkable), a main phase of ops mixed operations,
// and a verify sweep over every key. crashAt > 0 power-cycles the server
// that far into the main phase, with torn writes armed from preload on.
func runRecovery(d cluster.Design, pat workload.Pattern, ops int, crashAt sim.Time) *RecoveryRun {
	cl := cluster.New(cluster.Config{
		Design:    d,
		Profile:   cluster.ClusterA(),
		Servers:   1,
		Clients:   1,
		ServerMem: recoveryMem,
	})
	keys := int(int64(recoveryMem) * 3 / 2 / int64(recoveryKV))
	if crashAt > 0 {
		for i, dev := range cl.Devices {
			dev.SetTornWrites(int64(1000+i), recoveryTornProb)
		}
	}
	// Idempotent preload: the value for keyOf(i) is always keyOf(i), so a
	// recovered value is correct iff it equals its key — stale or torn data
	// surfacing after recovery is directly observable.
	cl.Env.Spawn("preload", func(p *sim.Proc) {
		for i := 0; i < keys; i++ {
			k := keyOf(i)
			cl.Clients[0].Set(p, k, recoveryKV, k, 0, 0)
		}
	})
	cl.Env.Run()
	cl.SettleIO()

	gen := workload.New(workload.Config{
		Keys: keys, ValueSize: recoveryKV, ReadFraction: 0.5,
		Pattern: pat, ZipfS: zipfOver, Seed: 7,
	})
	srv := cl.Servers[0]
	c := cl.Clients[0]
	rp := core.RetryPolicy{
		MaxAttempts:    12,
		AttemptTimeout: recoveryAttempt,
		Backoff:        500 * sim.Microsecond,
		MaxBackoff:     6 * sim.Millisecond,
		Seed:           99,
	}
	opts := []core.IssueOption{core.WithDeadline(recoveryDeadline), core.WithRetry(rp)}
	if d.BufferGuarantee() {
		opts = append(opts, core.WithBufferAck())
	}

	run := &RecoveryRun{Ops: int64(ops)}
	nudges0 := c.Stats().Recovering
	start := cl.Env.Now()
	if crashAt > 0 {
		cl.Env.AtFunc(start+crashAt, func() {
			srv.Crash()
			cl.Env.AfterFunc(recoveryColdGap, srv.RestartCold)
		})
	}
	one := func(p *sim.Proc, op core.Op) *core.Req {
		req, err := c.Issue(p, op, opts...)
		if err != nil {
			panic(fmt.Sprintf("bench: recovery issue failed: %v", err))
		}
		c.Wait(p, req)
		return req
	}
	cl.Env.Spawn("drv-recovery", func(p *sim.Proc) {
		for i := 0; i < ops; i++ {
			kind, key := gen.Next()
			op := core.Op{Code: protocol.OpGet, Key: key}
			if kind == workload.OpSet {
				op = core.Op{Code: protocol.OpSet, Key: key, ValueSize: recoveryKV, Value: key}
			}
			req := one(p, op)
			switch e := req.Err(); {
			case e == nil:
				run.OK++
				if req.Op == protocol.OpGet && req.Value != any(key) {
					run.CorruptReads++
				}
			case errors.Is(e, core.ErrNotFound):
				run.Misses++
			default:
				run.Failed++
			}
		}
		run.Elapsed = p.Now() - start
		// Let any in-flight outage drain, then sweep every key: the hit
		// ratio measures what the crash cost, the value check that nothing
		// torn or uncommitted is served.
		for srv.Down() || srv.Recovering() {
			p.Sleep(sim.Millisecond)
		}
		for i := 0; i < keys; i++ {
			k := keyOf(i)
			req := one(p, core.Op{Code: protocol.OpGet, Key: k})
			run.VerifyOps++
			if req.Err() == nil {
				run.VerifyHits++
				if req.Value != any(k) {
					run.CorruptReads++
				}
			}
		}
	})
	cl.Env.Run()
	run.Rejected = srv.Rejected
	run.Nudges = c.Stats().Recovering - nudges0
	run.Report = srv.LastRecovery
	run.RecoveryTime = srv.RecoveryTime
	return run
}

// recoveryExp is the registry entry: for each hybrid design × access
// pattern, a clean run and a twin with a mid-run power cycle under torn
// writes, contrasting recovery time, scan outcome, and hit-ratio cost.
func recoveryExp(o Options) *Result {
	res := newResult("recovery", "Cold-restart recovery: crash consistency under torn writes")
	_, _, opsDef := o.geometry()
	ops := o.ops(opsDef / 2)

	recMS := &metrics.Series{Name: "recovery ms"}
	scanned := &metrics.Series{Name: "pages scan"}
	recovered := &metrics.Series{Name: "pages ok"}
	discarded := &metrics.Series{Name: "pages drop"}
	cleanHit := &metrics.Series{Name: "clean hit%"}
	postHit := &metrics.Series{Name: "post hit%"}
	failed := &metrics.Series{Name: "failed"}
	corrupt := &metrics.Series{Name: "corrupt"}

	designs := []cluster.Design{
		cluster.HRDMADef, cluster.HRDMAOptBlock,
		cluster.HRDMAOptNonBB, cluster.HRDMAOptNonBI,
	}
	patterns := []struct {
		name string
		pat  workload.Pattern
	}{
		{"uniform", workload.Uniform},
		{"zipf", workload.Zipf},
	}
	for _, d := range designs {
		for _, pc := range patterns {
			clean := runRecovery(d, pc.pat, ops, 0)
			crash := runRecovery(d, pc.pat, ops, clean.Elapsed/2)
			name := d.String() + "." + pc.name
			recMS.Append(name, float64(crash.RecoveryTime)/float64(sim.Millisecond))
			scanned.Append(name, float64(crash.Report.PagesScanned))
			recovered.Append(name, float64(crash.Report.PagesRecovered))
			discarded.Append(name, float64(crash.Report.PagesDiscarded))
			cleanHit.Append(name, 100*clean.HitRatio())
			postHit.Append(name, 100*crash.HitRatio())
			failed.Append(name, float64(crash.Failed))
			corrupt.Append(name, float64(crash.CorruptReads+clean.CorruptReads))
			res.metric(name+".recovery_ms", float64(crash.RecoveryTime)/float64(sim.Millisecond))
			res.metric(name+".pages_scanned", float64(crash.Report.PagesScanned))
			res.metric(name+".pages_recovered", float64(crash.Report.PagesRecovered))
			res.metric(name+".pages_discarded", float64(crash.Report.PagesDiscarded))
			res.metric(name+".pages_torn", float64(crash.Report.PagesTorn))
			res.metric(name+".pages_uncommitted", float64(crash.Report.PagesUncommitted))
			res.metric(name+".items_recovered", float64(crash.Report.ItemsRecovered))
			res.metric(name+".clean_hit_ratio", clean.HitRatio())
			res.metric(name+".post_hit_ratio", crash.HitRatio())
			res.metric(name+".rejected", float64(crash.Rejected))
			res.metric(name+".recovering_retries", float64(crash.Nudges))
			res.metric(name+".failed", float64(crash.Failed))
			res.metric(name+".corrupt_reads", float64(crash.CorruptReads+clean.CorruptReads))
		}
	}
	res.Output = res.addTable(res.Title,
		recMS, scanned, recovered, discarded, cleanHit, postHit, failed, corrupt) +
		res.renderMetrics()
	return res
}
