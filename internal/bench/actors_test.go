package bench

import (
	"testing"

	"hybridkv/internal/cluster"
	"hybridkv/internal/history"
	"hybridkv/internal/sim"
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
