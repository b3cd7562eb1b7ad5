package bench

import (
	"errors"
	"fmt"

	"hybridkv/internal/cluster"
	"hybridkv/internal/core"
	"hybridkv/internal/fault"
	"hybridkv/internal/history"
	"hybridkv/internal/metrics"
	"hybridkv/internal/protocol"
	"hybridkv/internal/server"
	"hybridkv/internal/sim"
)

// The chaos soak: every robustness mechanism at once — message drops,
// duplicates and latency spikes from the fault injector, a warm crash and a
// cold restart of one server, and a flooder client keeping the bounded
// admission layer shedding — while checker workers log every operation they
// perform into a history.Log. After the run the log is checked offline
// against the cache's invariants: no acked write lost outside a crash
// window, no stale read after a completed CAS write, no read of a value
// nobody wrote, no counter regression, and no wedged process (liveness:
// every issued operation completes, so virtual time kept advancing).
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
	chaosDeadline       = 60 * sim.Millisecond
	chaosAttemptTimeout = 8 * sim.Millisecond
	chaosMaxAttempts    = 8
	chaosBackoff        = 100 * sim.Microsecond
	chaosMaxBackoff     = 2 * sim.Millisecond

	chaosWriters       = 3
	chaosKeysPerWriter = 2
	chaosValueSize     = 4 * 1024
	chaosThink         = 120 * sim.Microsecond

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

// chaosReport is one design's soak outcome.
type chaosReport struct {
	Log        *history.Log
	Violations []history.Violation
	Elapsed    sim.Time

	AckedWrites         int
	ShedSets, ShedGets  int64
	Rejected, Discarded int64
	Recoveries          int64
	Busy, Retries       int64
	BreakerOpen, Hedges int64
	InjDrops, InjSpikes int64
	// Repl merges every replicator's counters (forwards, repair-pushes,
	// repair-pulls, epoch-conflicts, stale-reads-prevented, ...); empty
	// when the soak ran unreplicated.
	Repl *metrics.Counters
}

// runChaos soaks one hybrid design for rounds rounds per worker and checks
// the observed history. seed drives the fault injector.
func runChaos(d cluster.Design, rounds int, seed int64) *chaosReport {
	return runChaosR(d, rounds, seed, 0, false)
}

// runChaosR is runChaos with replication: replicas > 1 attaches the
// primary–backup replication chain (every change below is gated on it, so
// replicas ≤ 1 stays bit-identical to the original soak), and kills swaps
// the warm-crash/cold-restart schedule for whole-node kills — first RAM
// only, then RAM plus a wiped SSD — the failure mode only replication can
// survive. In replicated mode the checker runs with Replicated histories:
// the stale-read rule keeps no crash excuse, and the checker client is
// allowed to fail over (rerouting is safe once every replica holds each
// acked write — the exact soundness hazard the unreplicated soak's
// no-failover rule guards against).
func runChaosR(d cluster.Design, rounds int, seed int64, replicas int, kills bool) *chaosReport {
	servers := 2
	if replicas > 1 {
		// Three nodes with R=2: replica sets are proper subsets, so the
		// soak also exercises proxy-coordinated writes and non-member gets.
		servers = 3
	}
	cl := cluster.New(cluster.Config{
		Design:            d,
		Profile:           cluster.ClusterA(),
		Servers:           servers,
		Clients:           1,
		ReplicationFactor: replicas,
		ServerMem:         2 << 20, // 2 MB/server: the flood overcommits it
		StorageWorkers:    overWorkers,
		BufferBytes:       overBufferBytes,
		Overload: server.OverloadConfig{
			Enabled:        true,
			QueueHigh:      overQueueHigh,
			RetryAfterUnit: 10 * sim.Microsecond,
		},
	})
	inj := fault.New(fault.Config{Seed: seed, Drop: 0.005, Dup: 0.005, Spike: 0.01})
	cl.Fabric.SetFaults(inj)

	// The flooder gets its own client node so its breaker and retry state
	// cannot leak into the checker's connections.
	fcfg := core.Config{
		Transport: core.RDMA,
		Breaker:   core.BreakerConfig{Threshold: 6, Cooldown: 500 * sim.Microsecond},
	}
	fcfg.Membership = cl.Membership // nil when unreplicated
	fc := core.New(cl.Env, cl.Fabric.AddNode("flooder"), fcfg)
	for _, srv := range cl.Servers {
		fc.ConnectRDMA(srv)
	}

	log := &history.Log{Replicated: replicas > 1}
	rp := core.RetryPolicy{
		MaxAttempts:    chaosMaxAttempts,
		AttemptTimeout: chaosAttemptTimeout,
		Backoff:        chaosBackoff,
		MaxBackoff:     chaosMaxBackoff,
		Jitter:         -1, // deterministic backoff
		Seed:           seed,
		Failover:       replicas > 1,
	}
	guardGet := []core.IssueOption{core.WithDeadline(chaosDeadline), core.WithRetry(rp)}
	guardSet := guardGet
	if d.BufferGuarantee() {
		// bset semantics: the BufferAck marks writes the server has
		// promised to drain — the acked-write-lost invariant's subjects.
		guardSet = append(append([]core.IssueOption{}, guardGet...), core.WithBufferAck())
	}

	c := cl.Clients[0]
	expected := 0

	// Writers: per-key CAS chains. The value of every write is its
	// sequence number, and each write carries the CAS token of the read
	// that preceded it, so duplicated or retransmitted frames can never
	// apply a stale overwrite behind the log's back — a failed CAS
	// (ErrExists) just re-syncs by reading on the next round. Each round
	// records exactly one Read and one Write entry.
	for w := 0; w < chaosWriters; w++ {
		w := w
		expected += rounds * 2
		cl.Env.Spawn(fmt.Sprintf("chaos-writer%d", w), func(p *sim.Proc) {
			next := make([]uint64, chaosKeysPerWriter)
			for r := 0; r < rounds; r++ {
				ki := r % chaosKeysPerWriter
				key := fmt.Sprintf("chaos:w%d:k%d", w, ki)

				t0 := p.Now()
				rreq, err := c.Issue(p, core.Op{Code: protocol.OpGet, Key: key}, guardGet...)
				if err != nil {
					panic("bench: chaos read issue failed: " + err.Error())
				}
				c.Wait(p, rreq)
				rerr := rreq.Err()
				hit := rerr == nil
				var seq uint64
				if hit {
					seq, _ = rreq.Value.(uint64)
				}
				log.Record(history.Entry{
					Worker: w, Kind: history.Read, Key: key, Seq: seq,
					Hit: hit, OK: hit || errors.Is(rerr, core.ErrNotFound),
					IssuedAt: t0, CompletedAt: p.Now(),
				})

				// Single writer per key: the local counter is the
				// authoritative clock, bumped on every attempt so even a
				// timed-out-but-applied write stays in the recorded range.
				next[ki]++
				seqW := next[ki]
				op := core.Op{Code: protocol.OpAdd, Key: key, ValueSize: chaosValueSize, Value: seqW}
				if hit {
					op = core.Op{Code: protocol.OpCAS, Key: key, ValueSize: chaosValueSize, Value: seqW, CAS: rreq.CAS}
				}
				t1 := p.Now()
				wreq, err := c.Issue(p, op, guardSet...)
				if err != nil {
					panic("bench: chaos write issue failed: " + err.Error())
				}
				c.Wait(p, wreq)
				werr := wreq.Err()
				// Acked marks writes the invariant holds to "must
				// complete": a definite rejection (stale token, Add on an
				// existing key) is a completion, not a loss.
				acked := wreq.Acked() &&
					(werr == nil || errors.Is(werr, core.ErrDeadlineExceeded))
				log.Record(history.Entry{
					Worker: w, Kind: history.Write, Key: key, Seq: seqW,
					OK: werr == nil, Acked: acked,
					IssuedAt: t1, CompletedAt: p.Now(),
				})
				p.Sleep(chaosThink)
			}
		})
	}

	// Counter worker: one guarded Incr per round; the returned value is
	// the observation. A cold restart may resurrect an older counter epoch
	// or lose the key outright — both are excused by the crash window; a
	// regression anywhere else is a violation.
	expected += rounds
	cl.Env.Spawn("chaos-counter", func(p *sim.Proc) {
		const key = "chaos:ctr"
		seedCtr := func() {
			req, err := c.Issue(p, core.Op{
				Code: protocol.OpSet, Key: key,
				ValueSize: core.CounterSize, Value: uint64(0),
			}, guardSet...)
			if err != nil {
				panic("bench: chaos counter issue failed: " + err.Error())
			}
			c.Wait(p, req)
		}
		seedCtr()
		for r := 0; r < rounds; r++ {
			t0 := p.Now()
			req, err := c.Issue(p, core.Op{Code: protocol.OpIncr, Key: key, Delta: 1}, guardGet...)
			if err != nil {
				panic("bench: chaos incr issue failed: " + err.Error())
			}
			c.Wait(p, req)
			e := req.Err()
			v, _ := req.Value.(uint64)
			log.Record(history.Entry{
				Worker: chaosWriters, Kind: history.IncrOp, Key: key, Seq: v,
				OK: e == nil, IssuedAt: t0, CompletedAt: p.Now(),
			})
			if errors.Is(e, core.ErrNotFound) {
				seedCtr() // a cold restart lost the counter: re-seed
			}
			p.Sleep(chaosThink)
		}
	})

	// Flooder: bursts of large scratch-key sets, enough volume to
	// overcommit both servers' slab memory so every burst exercises the
	// hybrid eviction path and the admission watermarks. Failures are the
	// point; nothing here is logged.
	cl.Env.Spawn("chaos-flood", func(p *sim.Proc) {
		frp := core.RetryPolicy{
			MaxAttempts: 2, AttemptTimeout: 2 * sim.Millisecond,
			Backoff: 50 * sim.Microsecond, Jitter: -1, Seed: seed + 1,
		}
		floodOps := rounds * 16
		var win []*core.Req
		for i := 0; i < floodOps; i++ {
			key := fmt.Sprintf("flood:%04d", i%chaosFloodKeys)
			req, err := fc.Issue(p, core.Op{
				Code: protocol.OpSet, Key: key,
				ValueSize: chaosFloodValue, Value: key,
			}, core.WithDeadline(4*sim.Millisecond), core.WithRetry(frp))
			if err != nil {
				panic("bench: chaos flood issue failed: " + err.Error())
			}
			win = append(win, req)
			if len(win) == chaosFloodBurst {
				fc.WaitAll(p, win)
				win = win[:0]
				p.Sleep(chaosFloodGap)
			}
		}
		fc.WaitAll(p, win)
	})

	// Crash schedule against server 0: a warm crash (process wedge; store
	// survives) early, a cold restart (RAM gone; recovery scan rebuilds
	// from SSD) later. Each window is recorded conservatively — crash
	// start through fully recovered — since invariant floors do not carry
	// across it.
	if kills {
		// Whole-node kill schedule: first server 0 loses its RAM and every
		// pending buffer (SSD intact — recovered keys come back suspect and
		// must be confirmed against peers before being served); later
		// server 1 dies completely, SSD wiped, as if replaced — every key
		// it held comes back only through the replication chain.
		cl.Env.Spawn("chaos-kills", func(p *sim.Proc) {
			s0, s1 := cl.Servers[0], cl.Servers[1]
			p.Sleep(3 * sim.Millisecond)
			from := p.Now()
			s0.Kill(false)
			p.Sleep(300 * sim.Microsecond)
			s0.RestartCold()
			for s0.Recovering() {
				p.Sleep(100 * sim.Microsecond)
			}
			log.CrashWindow(from, p.Now())

			p.Sleep(4 * sim.Millisecond)
			from = p.Now()
			s1.Kill(true)
			p.Sleep(200 * sim.Microsecond)
			s1.RestartCold()
			for s1.Recovering() {
				p.Sleep(100 * sim.Microsecond)
			}
			log.CrashWindow(from, p.Now())
		})
	} else {
		srv := cl.Servers[0]
		cl.Env.Spawn("chaos-crashes", func(p *sim.Proc) {
			p.Sleep(3 * sim.Millisecond)
			from := p.Now()
			srv.Crash()
			p.Sleep(300 * sim.Microsecond)
			srv.Restart()
			log.CrashWindow(from, p.Now())

			p.Sleep(4 * sim.Millisecond)
			from = p.Now()
			srv.Crash()
			p.Sleep(200 * sim.Microsecond)
			srv.RestartCold()
			for srv.Recovering() {
				p.Sleep(100 * sim.Microsecond)
			}
			log.CrashWindow(from, p.Now())
		})
	}

	start := cl.Env.Now()
	cl.Env.RunUntil(start + chaosLimit)
	log.Expected = expected

	// RunUntil fast-forwards the clock to its limit, so the soak's real
	// span is the last logged completion, not Env.Now.
	var last sim.Time
	for _, e := range log.Entries {
		if e.CompletedAt > last {
			last = e.CompletedAt
		}
	}

	cs, fs := c.Stats(), fc.Stats()
	rep := &chaosReport{
		Log:         log,
		Violations:  log.Check(),
		Elapsed:     last - start,
		Busy:        cs.Busy + fs.Busy,
		Retries:     cs.Retries + fs.Retries,
		BreakerOpen: fs.BreakerOpen,
		Hedges:      cs.Hedges,
		InjDrops:    inj.Drops,
		InjSpikes:   inj.Spikes,
		Repl:        cl.ReplicationCounters(),
	}
	for _, e := range log.Entries {
		if e.Kind == history.Write && e.Acked {
			rep.AckedWrites++
		}
	}
	for _, s := range cl.Servers {
		rep.ShedSets += s.ShedSets
		rep.ShedGets += s.ShedGets
		rep.Rejected += s.Rejected
		rep.Discarded += s.Discarded
		rep.Recoveries += s.Recovery.Get("recoveries")
	}
	return rep
}

// chaosExp is the registry entry: the soak over the four hybrid designs.
// The headline number per design is violations, which must be zero.
func chaosExp(o Options) *Result {
	res := newResult("chaos", "Chaos soak: faults + crashes + overload under the history invariant checker")
	// o.ops budgets total logged entries; each worker round logs
	// 2·writers + 1 of them.
	rounds := o.ops(420) / (chaosWriters*2 + 1)
	if rounds < 8 {
		rounds = 8
	}

	viol := &metrics.Series{Name: "violations"}
	entries := &metrics.Series{Name: "entries"}
	acked := &metrics.Series{Name: "acked-writes"}
	shed := &metrics.Series{Name: "shed s/g"}
	busy := &metrics.Series{Name: "busy"}
	rec := &metrics.Series{Name: "recoveries"}

	detail := ""
	for _, d := range cluster.Designs {
		if !d.Hybrid() {
			continue
		}
		rep := runChaos(d, rounds, 42)
		name := d.String()
		viol.Append(name, float64(len(rep.Violations)))
		entries.Append(name, float64(len(rep.Log.Entries)))
		acked.Append(name, float64(rep.AckedWrites))
		shed.Append(name, float64(rep.ShedSets+rep.ShedGets))
		busy.Append(name, float64(rep.Busy))
		rec.Append(name, float64(rep.Recoveries))

		res.metric(name+".violations", float64(len(rep.Violations)))
		res.metric(name+".entries", float64(len(rep.Log.Entries)))
		res.metric(name+".acked_writes", float64(rep.AckedWrites))
		res.metric(name+".shed_sets", float64(rep.ShedSets))
		res.metric(name+".shed_gets", float64(rep.ShedGets))
		res.metric(name+".rejected", float64(rep.Rejected))
		res.metric(name+".discarded", float64(rep.Discarded))
		res.metric(name+".busy", float64(rep.Busy))
		res.metric(name+".retries", float64(rep.Retries))
		res.metric(name+".breaker_open", float64(rep.BreakerOpen))
		res.metric(name+".recoveries", float64(rep.Recoveries))
		res.metric(name+".inj_drops", float64(rep.InjDrops))
		res.metric(name+".elapsed_us", us(rep.Elapsed))

		for _, v := range rep.Violations {
			detail += fmt.Sprintf("VIOLATION %s: %s\n", name, v)
		}
	}
	res.Output = res.addTable(res.Title, viol, entries, acked, shed, busy, rec) +
		detail + res.renderMetrics()
	return res
}
