package bench

import (
	"testing"

	"hybridkv/internal/cluster"
	"hybridkv/internal/history"
	"hybridkv/internal/sim"
	"hybridkv/internal/workload"
)

// chainRun runs the shared CAS-chain writers (and the counter) on a quiet,
// healthy two-server deployment of the buffer-guarantee design: no faults,
// no crashes, so the log is the actors' evidence discipline and nothing
// else.
func chainRun(t *testing.T, rounds int) *run {
	t.Helper()
	return runCell(t, cell{
		spec: &spec{Config: cluster.Config{
			Design: cluster.HRDMAOptNonBB, Profile: cluster.ClusterA(), Servers: 2, ServerMem: 8 << 20,
		}},
		drive: func(cl *cluster.Cluster, r *run) {
			r.Log = &history.Log{}
			ch := checkerChain("t", rounds, 1, false, true)
			r.spawnWriters(cl, cl.Clients[0], ch)
			r.spawnCounter(cl, cl.Clients[0], ch)
			// no driver: the actors are the registry's own; the log's liveness rule checks they finished
			cl.Env.RunUntil(cl.Env.Now() + 100*sim.Millisecond)
			r.Ops = int64(r.Log.Expected)
		},
	})
}

// The one direct test of the CAS-chain actor every history-checked cell
// shares. On a healthy cluster its log must be complete and clean, every
// write acknowledged and in strict per-key sequence, every read in sync
// with the chain. And the evidence must have teeth: take that same log and
// lose an acked write, or let a sequence number come back, and Check must
// object — were the actor to drop the Acked flag or reuse a sequence, these
// are the rules that would go blind.
func TestCASChainActor(t *testing.T) {
	const rounds = 12
	r := chainRun(t, rounds)
	if v := r.Log.Check(); len(v) != 0 {
		t.Fatalf("healthy run violated: %v", v)
	}
	if want := chaosWriters*rounds*2 + rounds; r.Log.Expected != want || len(r.Log.Entries) != want {
		t.Fatalf("logged %d entries, expected %d, want %d", len(r.Log.Entries), r.Log.Expected, want)
	}
	lastWrite := map[string]uint64{}
	ackedAt := -1
	for i, e := range r.Log.Entries {
		switch e.Kind {
		case history.Read:
			if e.Seq != lastWrite[e.Key] || e.Hit != (e.Seq > 0) {
				t.Errorf("entry %d: read of %s saw seq %d (hit=%v) after write %d", i, e.Key, e.Seq, e.Hit, lastWrite[e.Key])
			}
		case history.Write:
			if !e.OK || !e.Acked {
				t.Errorf("entry %d: write of %s seq %d ok=%v acked=%v on a healthy buffer-guarantee cluster", i, e.Key, e.Seq, e.OK, e.Acked)
			}
			if e.Seq != lastWrite[e.Key]+1 {
				t.Errorf("entry %d: write of %s reused or skipped a sequence: %d after %d", i, e.Key, e.Seq, lastWrite[e.Key])
			}
			lastWrite[e.Key] = e.Seq
			ackedAt = i
		}
	}
	for key, seq := range lastWrite {
		if r.lastOK[key] != seq {
			t.Errorf("lastOK[%s] = %d, the log's newest OK write is %d", key, r.lastOK[key], seq)
		}
	}

	tamper := func(name, rule string, edit func(l *history.Log)) {
		l := &history.Log{Entries: append([]history.Entry(nil), r.Log.Entries...), Expected: r.Log.Expected}
		edit(l)
		for _, v := range l.Check() {
			if v.Rule == rule {
				return
			}
		}
		t.Errorf("%s: Check raised no %s violation", name, rule)
	}
	tamper("an acked write that never completed", "acked-write-lost", func(l *history.Log) {
		l.Entries[ackedAt].OK = false
	})
	tamper("a read that saw a sequence come back", "stale-read", func(l *history.Log) {
		for i := len(l.Entries) - 1; i >= 0; i-- {
			if e := &l.Entries[i]; e.Kind == history.Read && e.Seq > 1 {
				e.Seq--
				return
			}
		}
		t.Fatal("no read past sequence 1 to tamper with")
	})
	tamper("an operation that never completed", "liveness", func(l *history.Log) {
		l.Entries = l.Entries[:len(l.Entries)-1]
	})
}

// TestScheduleTiming runs one fault schedule on a quiet three-server R=2
// deployment and reads the interpreter's contract off the log it keeps: a
// cold crash's window spans down through fully recovered (its restart plus
// the recovery scan, up to the first 100 µs poll after it); each step's
// after counts from the previous step's completion — an outage's when its
// server answers again, a join's as it starts, a
// settle's when the open rebalance finalized; and each settle closes one
// window per open rebalance.
func TestScheduleTiming(t *testing.T) {
	const crashAt, down, quiet = sim.Millisecond, 300 * sim.Microsecond, 500 * sim.Microsecond
	cl := (&spec{Config: cluster.Config{
		Design: cluster.HRDMAOptNonBB, Profile: cluster.ClusterA(), Servers: 3, Clients: 1,
		ServerMem: 1 << 20, ReplicationFactor: 2,
	}}).build()
	cl.Preload(1024, 4<<10, workload.KeyOf) // 4 MB at R=2 over 3 MB of RAM: the recovery scan has pages to read
	log := &history.Log{}
	start := cl.Env.Now()
	spawnSchedule(cl, nil, log, []step{
		{crashAt, coldCrash, 1, down},
		{after: quiet, kind: join},
		{kind: settle},
		{quiet, warmCrash, 2, down},
		{after: quiet, kind: decommission, target: 0},
		{kind: settle},
	})
	cl.Env.Run() // no driver: spawnSchedule is the registry's own interpreter; the windows it logs are the check
	recovery := cl.Servers[1].RecoveryTime
	if len(log.Crashes) != 2 || len(log.Rebalances) != 2 {
		t.Fatalf("logged %d crash and %d rebalance windows, want 2 and 2", len(log.Crashes), len(log.Rebalances))
	}
	cold, warm := log.Crashes[0], log.Crashes[1]
	joined, left := log.Rebalances[0], log.Rebalances[1]
	if span := cold.To - cold.From; cold.From != start+crashAt || span < down+recovery || span > down+recovery+100*sim.Microsecond {
		t.Errorf("cold crash window %v..%v (%v long), want from %v, down %v plus the %v scan and at most one poll",
			cold.From-start, cold.To-start, span, crashAt, down, recovery)
	}
	if joined.From != cold.To+quiet {
		t.Errorf("join began %v after the crashed server answered again, want %v", joined.From-cold.To, quiet)
	}
	if joined.To <= joined.From || warm.From != joined.To+quiet || warm.To != warm.From+down {
		t.Errorf("join window %v..%v, warm crash window %v..%v: want the join to take time, and the crash %v after it finalized and %v long",
			joined.From-start, joined.To-start, warm.From-start, warm.To-start, quiet, down)
	}
	if left.From != warm.To+quiet || left.To <= left.From {
		t.Errorf("decommission window %v..%v, want from %v after the warm crash, and closed", left.From-start, left.To-start, quiet)
	}
	for _, v := range log.Check() {
		t.Errorf("violation: %v", v)
	}
}
