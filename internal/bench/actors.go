package bench

import (
	"errors"
	"fmt"
	"sort"

	"hybridkv/internal/cluster"
	"hybridkv/internal/core"
	"hybridkv/internal/history"
	"hybridkv/internal/protocol"
	"hybridkv/internal/replication"
	"hybridkv/internal/server"
	"hybridkv/internal/sim"
	"hybridkv/internal/workload"
)

// The actors the robustness cells share: checker workers that log every
// operation they perform into the run's history.Log (CAS-chain writers, a
// guarded counter), the fault schedule that takes servers down and reshards
// the ring under them, and the server-side sweep that counts lost acked
// writes afterwards. The log is checked offline against the cache's
// invariants: no acked write lost outside a crash window, no stale read after
// a completed CAS write, no read of a value nobody wrote, no counter
// regression, and no wedged process (every issued operation completes).

// chain configures the CAS-chain writers of one cell.
type chain struct {
	// ns namespaces the keys: writer w owns "<ns>:w<w>:k<0..keysPer)".
	ns               string
	writers, keysPer int
	rounds           int
	valueSize        int
	think            sim.Time
	// get guards the reads and the counter's Incr, set the writes (it adds
	// the BufferAck on the buffer-guarantee design).
	get, set []core.IssueOption
	// start, when set, holds every actor back until it fires; done, when
	// set, is called as each actor finishes (a supervisor counting them).
	start *sim.Event
	done  func()
}

func (ch *chain) key(w, ki int) string { return fmt.Sprintf("%s:w%d:k%d", ch.ns, w, ki) }

// enter and leave bracket an actor's body.
func (ch *chain) enter(p *sim.Proc) {
	if ch.start != nil {
		p.Wait(ch.start)
	}
}

func (ch *chain) leave() {
	if ch.done != nil {
		ch.done()
	}
}

// read performs one logged GET of key as worker w and returns the CAS token
// it fetched and how it ended.
func (r *run) read(p *sim.Proc, c *core.Client, w int, key string, opts []core.IssueOption) (cas uint64, err error) {
	t0 := p.Now()
	req := do(p, c, core.Op{Code: protocol.OpGet, Key: key}, opts)
	err, cas = req.Err(), req.CAS
	hit := err == nil
	var seq uint64
	if hit {
		seq, _ = req.Value.(uint64)
	}
	c.Release(req)
	r.Log.Record(history.Entry{
		Worker: w, Kind: history.Read, Key: key, Seq: seq,
		Hit: hit, OK: hit || errors.Is(err, core.ErrNotFound),
		IssuedAt: t0, CompletedAt: p.Now(),
	})
	return cas, err
}

// spawnWriters starts the cell's CAS-chain writers on client c. The value
// of every write is its sequence number, and each write carries the CAS
// token of the read that preceded it, so duplicated or retransmitted frames
// can never apply a stale overwrite behind the log's back — a failed CAS
// (ErrExists; under read fan-out, a backup's token the primary rejects)
// just re-syncs by reading on the next round. What a chain must never do is
// read a sequence older than its last acked write. Each round records
// exactly one Read and one Write entry.
func (r *run) spawnWriters(cl *cluster.Cluster, c *core.Client, ch *chain) {
	for w := 0; w < ch.writers; w++ {
		r.Log.Expected += ch.rounds * 2
		cl.Env.Spawn(fmt.Sprintf("%s-writer%d", ch.ns, w), func(p *sim.Proc) {
			defer ch.leave()
			ch.enter(p)
			next := make([]uint64, ch.keysPer)
			for round := 0; round < ch.rounds; round++ {
				ki := round % ch.keysPer
				key := ch.key(w, ki)
				rcas, rerr := r.read(p, c, w, key, ch.get)

				// Single writer per key: the local counter is the
				// authoritative clock, bumped on every attempt so even a
				// timed-out-but-applied write stays in the recorded range.
				next[ki]++
				seq := next[ki]
				op := core.Op{Code: protocol.OpAdd, Key: key, ValueSize: ch.valueSize, Value: seq}
				if rerr == nil {
					op.Code, op.CAS = protocol.OpCAS, rcas
				}
				t1 := p.Now()
				wreq := do(p, c, op, ch.set)
				werr := wreq.Err()
				// Acked marks writes the invariant holds to "must
				// complete": a definite rejection (stale token, Add on an
				// existing key) is a completion, not a loss.
				r.Log.Record(history.Entry{
					Worker: w, Kind: history.Write, Key: key, Seq: seq,
					OK:       werr == nil,
					Acked:    wreq.Acked() && (werr == nil || errors.Is(werr, core.ErrDeadlineExceeded)),
					IssuedAt: t1, CompletedAt: p.Now(),
				})
				c.Release(wreq)
				if werr == nil && seq > r.lastOK[key] {
					r.lastOK[key] = seq
				}
				p.Sleep(ch.think)
			}
		})
	}
}

// spawnCounter starts the counter worker: one guarded Incr per round; the
// returned value is the observation. A cold restart may resurrect an older
// counter epoch or lose the key outright — both are excused by the crash
// window; a regression anywhere else is a violation.
func (r *run) spawnCounter(cl *cluster.Cluster, c *core.Client, ch *chain) {
	r.Log.Expected += ch.rounds
	key := ch.ns + ":ctr"
	cl.Env.Spawn(ch.ns+"-counter", func(p *sim.Proc) {
		defer ch.leave()
		ch.enter(p)
		seed := core.Op{Code: protocol.OpSet, Key: key, ValueSize: protocol.CounterSize, Value: uint64(0)}
		c.Release(do(p, c, seed, ch.set))
		for round := 0; round < ch.rounds; round++ {
			t0 := p.Now()
			req := do(p, c, core.Op{Code: protocol.OpIncr, Key: key, Delta: 1}, ch.get)
			err := req.Err()
			v, _ := req.Value.(uint64)
			c.Release(req)
			r.Log.Record(history.Entry{
				Worker: ch.writers, Kind: history.IncrOp, Key: key, Seq: v,
				OK: err == nil, IssuedAt: t0, CompletedAt: p.Now(),
			})
			if errors.Is(err, core.ErrNotFound) {
				c.Release(do(p, c, seed, ch.set)) // a cold restart lost the counter: re-seed
			}
			p.Sleep(ch.think)
		}
	})
}

// step is one entry of a cell's fault schedule: after quiet time since the
// previous step completed, kind happens to server target (an outage keeps it
// dark for down). An outage completes when its server answers again, a join
// or a decommission as it starts, a settle when the open rebalance has
// finalized.
type step struct {
	after  sim.Time
	kind   stepKind
	target int
	down   sim.Time
}

type stepKind int

const (
	warmCrash = stepKind(server.WarmCrash) // the four outages are server.Outage's
	coldCrash = stepKind(server.ColdCrash)
	killRAM   = stepKind(server.KillRAM)
	killAll   = stepKind(server.KillAll)
)

const (
	// join adds a server and decommission drains target out of the ring;
	// each opens a rebalance window (To == 0) that the next settle closes.
	join stepKind = killAll + 1 + iota
	decommission
	settle
)

// spawnSchedule runs steps one after another from their own process (held
// back by start when set). Into log it records each outage conservatively,
// down through fully recovered, since invariant floors do not carry across
// it, and each rebalance from its start to its finalize. log may be nil for a
// schedule of outages alone.
func spawnSchedule(cl *cluster.Cluster, start *sim.Event, log *history.Log, steps []step) {
	cl.Env.Spawn("schedule", func(p *sim.Proc) {
		if start != nil {
			p.Wait(start)
		}
		for _, s := range steps {
			if s.after > 0 {
				p.Sleep(s.after)
			}
			switch s.kind {
			case join:
				cl.Join()
				log.RebalanceWindow(p.Now(), 0)
			case decommission:
				cl.Decommission(s.target)
				log.RebalanceWindow(p.Now(), 0)
			case settle:
				// Transitions are serialized, so at most one is open.
				cl.AwaitRebalance(p)
				if w := &log.Rebalances[len(log.Rebalances)-1]; w.To == 0 {
					w.To = p.Now()
				}
			default:
				from := p.Now()
				cl.Servers[s.target].Outage(p, server.OutageKind(s.kind), s.down)
				if log != nil {
					log.CrashWindow(from, p.Now())
				}
			}
		}
	})
}

// nodeKills is the whole-node kill schedule the replicated cells share:
// server 0 loses its RAM 3 ms in, server 1 dies completely 4 ms after
// server 0 is back; secondDown is how long the second node stays dark.
func nodeKills(secondDown sim.Time) []step {
	return []step{
		{3 * sim.Millisecond, killRAM, 0, 300 * sim.Microsecond},
		{4 * sim.Millisecond, killAll, 1, secondDown},
	}
}

// sweepLostAcked is the durability oracle: wait out recovery on every live
// server, idle for settle — long enough for several anti-entropy scrub
// rounds (2 ms cadence) to reconverge whatever the faults left behind —
// then ask each server directly, bypassing the client path, whether it
// still holds every acked key at or past its newest OK sequence. A key is
// lost when no server does. before runs between the settle and the sweep,
// for ledgers the sweep's own reads would disturb.
func (r *run) sweepLostAcked(p *sim.Proc, cl *cluster.Cluster, settle sim.Time, before func()) {
	live := func(sid int) bool {
		return cl.Membership == nil || cl.Membership.State(sid) != replication.NodeDead
	}
	for sid, s := range cl.Servers {
		for live(sid) && (s.Down() || s.Recovering()) {
			p.Sleep(sim.Millisecond)
		}
	}
	p.Sleep(settle)
	if before != nil {
		before()
	}
	keys := make([]string, 0, len(r.lastOK))
	for k := range r.lastOK {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		r.AckedKeys++
		held := false
		for sid, s := range cl.Servers {
			if !live(sid) {
				continue
			}
			if v, _, _, ok := s.Store().ReadItem(p, protocol.KeyOf(k)); ok {
				if seq, _ := v.(uint64); seq >= r.lastOK[k] {
					held = true
					break
				}
			}
		}
		if !held {
			r.LostAcked++
		}
	}
}

// seqLoop is the sequence-valued closed loop of the durability cells: ops
// guarded operations of gen, one at a time with think between them, every
// Set writing the next global sequence number. OK completions are timed
// into Lat and OK writes raise the key's lastOK floor. observe, when set,
// sees every completion (the bitrot cell logs them for the corrupt-read
// oracle).
func (r *run) seqLoop(p *sim.Proc, c *core.Client, gen *workload.Generator, ops int, opts []core.IssueOption, think sim.Time,
	observe func(kind workload.OpKind, op core.Op, req *core.Req, t0 sim.Time)) {
	nextSeq := uint64(1) // the preload wrote sequence 1 everywhere
	start := p.Now()
	for i := 0; i < ops; i++ {
		kind, key := gen.Next()
		op := core.Op{Code: protocol.OpGet, Key: key}
		if kind == workload.OpSet {
			nextSeq++
			op = core.Op{Code: protocol.OpSet, Key: key, ValueSize: gen.ValueSize(), Value: nextSeq}
		}
		t0 := p.Now()
		req := do(p, c, op, opts)
		err := req.Err()
		r.classify(err)
		if err == nil {
			r.Lat.Add(p.Now() - t0)
			if kind == workload.OpSet && nextSeq > r.lastOK[key] {
				r.lastOK[key] = nextSeq
			}
		}
		if observe != nil {
			observe(kind, op, req, t0)
		}
		c.Release(req)
		p.Sleep(think)
	}
	r.Elapsed = p.Now() - start
	r.Ops = int64(ops)
}

// preloadSeq stores sequence 1 under every key of gen's key space through
// client c and settles the I/O. These are acked writes too: a read-only
// run still has a durability oracle — the preloaded values themselves —
// and every GET has something to hit. each, when set, sees every write.
func (r *run) preloadSeq(cl *cluster.Cluster, c *core.Client, gen *workload.Generator, keys int, each func(key string, t0, t1 sim.Time)) {
	cl.Env.Spawn("preload-seq", func(p *sim.Proc) {
		for i := 0; i < keys; i++ {
			t0 := p.Now()
			c.Set(p, gen.Key(i), gen.ValueSize(), uint64(1), 0, 0)
			r.lastOK[gen.Key(i)] = 1
			if each != nil {
				each(gen.Key(i), t0, p.Now())
			}
		}
	})
	cl.Env.Run()
	cl.SettleIO()
}
