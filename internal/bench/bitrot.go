package bench

import (
	"errors"
	"fmt"

	"hybridkv/internal/cluster"
	"hybridkv/internal/core"
	"hybridkv/internal/history"
	"hybridkv/internal/metrics"
	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
	"hybridkv/internal/workload"
)

// The bitrot experiment: one server's SSD silently rots at rest while a
// mixed workload runs against a deliberately RAM-starved cluster, so most
// reads hit the rotting media. Cells cross R ∈ {1, 2, 3} with three
// defense levels: nodefense (on-SSD verification off, scrubber off — the
// server serves whatever the media returns), verify (foreground page-header
// + key-digest verification quarantines corrupt pages and answers
// StatusCorrupt, but no background repair), and verify+scrub (verification
// plus the content-aware anti-entropy scrubber proactively finding and
// repairing divergent bytes from peers). Every logged operation carries a
// content checksum and the history checker's corruption oracle
// (Log.CheckValues) demands each read hit byte-match SOME acked write; the
// end-of-run sweep counts acked keys no replica still holds. The headline:
// nodefense serves garbage (corrupt_reads > 0), verification alone already
// serves zero garbage at every R, and at R ≥ 2 verification + repair also
// loses nothing (lost_acked exactly 0) while quarantined pages are scrubbed
// back into the free pool.

const (
	rotServers = 3
	rotVictim  = 0 // the server whose SSD rots

	// RAM-starved on purpose: ~200 keys x 4 KB per server against a 256 KB
	// slab budget forces the bulk of the working set onto the SSD, where
	// the rot lives. Small slab pages keep eviction granular.
	rotKeys      = 600
	rotValueSize = 4 * 1024
	rotServerMem = 256 << 10
	rotPageSize  = 64 << 10

	// Rot schedule: armed immediately after preload settles, so the
	// preloaded extents' cells decay under the measured workload. The rate
	// picks which extents decay; the window bounds when. A rotted extent
	// stays bad until rewritten — the window bounds onset, not exposure.
	rotSeed   = 17
	rotRate   = 0.4
	rotWindow = 40 * sim.Millisecond

	rotDeadline = 60 * sim.Millisecond
	rotThink    = 100 * sim.Microsecond
	// rotSettle idles the cluster before the durability sweep: several
	// scrub rounds (2 ms cadence) to find and repair latent divergence.
	rotSettle = 10 * sim.Millisecond
)

// rotDefenses are the defense levels of the experiment grid.
var rotDefenses = []string{"nodefense", "verify", "verify+scrub"}

// bitrotCell executes one cell at replication factor and the named defense
// level: preload every key (seq 1), arm bit-rot on the victim's device,
// drive ops mixed operations under the corruption oracle, then settle and
// sweep for lost acked keys.
func bitrotCell(factor, ops int, defense string) cell {
	// Starve the host page cache too: with the default 128 MB cache every
	// "SSD read" is a DRAM hit and the rotting media is never touched. A
	// 256 KB cache forces the adaptive I/O schemes to the device, which is
	// where at-rest rot lives (a cache hit legitimately re-serves the
	// clean DRAM copy).
	prof := cluster.ClusterA()
	prof.PageCache.MaxPages = 64
	prof.PageCache.DirtyHighPages = 16
	prof.PageCache.ThrottlePages = 32
	cfg := cluster.Config{
		Design: cluster.HRDMAOptNonBB, Profile: prof, Servers: rotServers, Clients: 1,
		ServerMem: rotServerMem, SlabPageSize: rotPageSize, ReplicationFactor: factor,
		NoVerify: defense == "nodefense",
	}
	if defense != "verify+scrub" {
		cfg.ScrubInterval = -1 // no background repair
	}
	return cell{
		prefix: fmt.Sprintf("R%d.%s.", factor, defense), spec: &spec{Config: cfg},
		drive: func(cl *cluster.Cluster, r *run) {
			c := cl.Clients[0]
			w := uniform(0.7, 11)
			w.Keys, w.ValueSize = rotKeys, rotValueSize
			gen := workload.New(w)

			// Preload the key space with seq 1 and log those writes: the
			// oracle needs every legally-observable checksum, and a read
			// hitting a preloaded value is as legal as one hitting a
			// measured write.
			r.Log = &history.Log{Replicated: factor > 1, CheckValues: true}
			r.preloadSeq(cl, c, gen, rotKeys, func(key string, t0, t1 sim.Time) {
				r.Log.Record(history.Entry{
					Kind: history.Write, Key: key, Seq: 1,
					Sum: protocol.ValueSum(uint64(1)), OK: true, Acked: true,
					IssuedAt: t0, CompletedAt: t1,
				})
			})

			// The media starts decaying only now: every preloaded extent is
			// durable, so rate-selected extents on the victim all rot
			// inside the window while the workload reads them.
			cl.Devices[rotVictim].AddBitRot(rotSeed, cl.Env.Now(), cl.Env.Now()+rotWindow, rotRate)

			opts := guard{deadline: rotDeadline, attempts: 8, seed: 13, failover: true}.opts(true)
			cl.Env.Spawn("rot-driver", func(p *sim.Proc) {
				r.seqLoop(p, c, gen, ops, opts, rotThink, func(kind workload.OpKind, op core.Op, req *core.Req, t0 sim.Time) {
					r.Log.Record(rotEntry(kind, op, req, t0, p.Now()))
				})
				// Snapshot the integrity ledgers after the settle but BEFORE
				// the sweep: its own server-direct reads would go on
				// detecting and quarantining, polluting the measured-phase
				// numbers. A rotted copy fails verification in the sweep
				// too (or, nodefense, parses as garbage) — either way that
				// replica does not count as holding the key.
				r.sweepLostAcked(p, cl, rotSettle, func() { rotLedgers(cl, r) })
			})
			cl.Env.Run()
		},
		collect: func(_ *cluster.Cluster, r *run) {
			// Nodefense cells violate on purpose (corrupt reads, plus the
			// stale-read collateral a garbled hit causes); their counts are
			// the .violations metric. Details print only where a violation
			// is unexpected — any defended cell.
			r.check(defense == "nodefense")
			corrupt := 0
			for _, v := range r.Violations {
				if v.Rule == "corrupt-read" {
					corrupt++
				}
			}
			r.set("ok", float64(r.OK))
			r.set("misses", float64(r.Misses))
			r.set("failed", float64(r.Failed))
			r.set("p99_us", us(r.Lat.Quantile(0.99)))
			r.show("corrupt reads", "corrupt_reads", float64(corrupt))
			r.set("violations", float64(len(r.Violations)))
			r.set("acked_keys", float64(r.AckedKeys))
			r.show("lost acked", "lost_acked", float64(r.LostAcked))
			r.plot("rotten reads", r.val("rotten_reads"))
			r.plot("quarantined", r.val("quarantined"))
			r.plot("scrub repaired", r.val("scrub_repaired"))
		},
	}
}

// rotEntry renders one completed operation of the measured phase as a
// history entry carrying the content checksum the oracle compares.
func rotEntry(kind workload.OpKind, op core.Op, req *core.Req, t0, now sim.Time) history.Entry {
	e := history.Entry{Key: op.Key, Kind: history.Read, IssuedAt: t0, CompletedAt: now}
	err := req.Err()
	if kind == workload.OpSet {
		e.Kind, e.Sum = history.Write, protocol.ValueSum(op.Value)
		e.Seq, _ = op.Value.(uint64)
		e.OK = err == nil
		e.Acked = req.Acked() && !errors.Is(err, core.ErrNotFound)
		return e
	}
	switch {
	case err == nil:
		// The observed value may be garbage (a Garbled wrapper in the
		// nodefense cells): its Sum then matches no write's, which is
		// exactly what the oracle flags.
		e.Seq, _ = req.Value.(uint64)
		e.Sum, e.OK, e.Hit = protocol.ValueSum(req.Value), true, true
	case errors.Is(err, core.ErrNotFound):
		e.OK = true
	}
	return e
}

// rotLedgers records the ground truth and the defense-side ledgers of the
// measured phase: reads that actually served rotted contents (device),
// foreground reads answered StatusCorrupt (store), suspect pages held out
// of the free pool and quarantined regions scrubbed + reclaimed (manager),
// content divergences scrub detected and repaired (replication).
func rotLedgers(cl *cluster.Cluster, r *run) {
	var detected, quarantined, reclaims int64
	for _, s := range cl.Servers {
		st := s.Store().Stats()
		detected += st.CorruptReads
		quarantined += st.QuarantinedPages
		reclaims += s.Store().Manager().QuarantineReclaims
	}
	repl := cl.ReplicationCounters()
	found, repaired := repl.Val(metrics.CScrubCorruptionsFound), repl.Val(metrics.CScrubCorruptionsRepaired)
	r.set("rotten_reads", float64(cl.Devices[rotVictim].RottenReads))
	r.set("detected_corrupt", float64(detected))
	r.set("quarantined", float64(quarantined))
	r.set("quarantine_reclaims", float64(reclaims))
	r.set("scrub_found", float64(found))
	r.set("scrub_repaired", float64(repaired))
}

// bitrot is the registry entry: R ∈ {1,2,3} × the three defense levels over
// the same rot schedule, plus a replay of one defended cell to prove the
// injection draws nothing from the fault RNG stream. The headline metrics:
// nodefense_surfaces (the attack is real — garbage was served somewhere),
// defense_holds (no defended cell served a single corrupt read, and every
// defended R ≥ 2 cell lost zero acked writes), and replay_identical.
var bitrotExp = Experiment{
	ID: "bitrot", Title: "Bit-rot: at-rest SSD corruption vs read verification and scrub repair",
	cells: func(o Options) (cells []cell) {
		for _, factor := range []int{1, 2, 3} {
			for _, defense := range rotDefenses {
				cells = append(cells, bitrotCell(factor, o.ops(600), defense))
			}
		}
		// Replay identity: the same defended cell twice more, silent, for
		// derive to compare on the final virtual clock and every ledger —
		// the injection is a pure hash of (seed, offset), so a faulted run
		// replays exactly.
		for _, tag := range []string{"replay.a.", "replay.b."} {
			c := bitrotCell(2, o.ops(600), "verify+scrub")
			c.prefix, c.silent = tag, true
			ledgers := c.collect
			c.collect = func(cl *cluster.Cluster, r *run) {
				ledgers(cl, r)
				r.set("now", float64(r.Now))
			}
			cells = append(cells, c)
		}
		return cells
	},
	derive: func(v func(string) float64, h *run) {
		surfaced, held := false, true
		for _, factor := range []int{1, 2, 3} {
			at := fmt.Sprintf("R%d.", factor)
			surfaced = surfaced || v(at+"nodefense.corrupt_reads") > 0
			for _, defense := range rotDefenses[1:] {
				held = held && v(at+defense+".corrupt_reads") == 0 &&
					(factor < 2 || v(at+defense+".lost_acked") == 0)
			}
		}
		identical := true
		for _, name := range []string{
			"now", "ok", "misses", "failed", "rotten_reads", "detected_corrupt", "quarantined",
			"scrub_found", "scrub_repaired", "corrupt_reads", "lost_acked",
		} {
			identical = identical && v("replay.a."+name) == v("replay.b."+name)
		}
		h.set("nodefense_surfaces", boolMetric(surfaced))
		h.set("defense_holds", boolMetric(held))
		h.set("replay_identical", boolMetric(identical))
	},
}
