package replication_test

import (
	"testing"

	"hybridkv/internal/cluster"
	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
)

// replicatedSetModel returns a step that runs one SET end to end on a
// three-server R=3 cluster: the client's request, the coordinator's forward
// to both backups, their applies and acks, the coordinator's apply, the
// response. The scrubber is off, so the step is the write and nothing else.
func replicatedSetModel() (step func()) {
	cl := cluster.New(cluster.Config{
		Design:            cluster.HRDMAOptNonBI,
		Profile:           cluster.ClusterA(),
		Servers:           3,
		Clients:           1,
		ServerMem:         8 << 20,
		ReplicationFactor: 3,
		ScrubInterval:     -1,
	})
	c := cl.Clients[0]
	kick := sim.NewQueue[struct{}](cl.Env, 0)
	cl.Env.Spawn("driver", func(p *sim.Proc) {
		for {
			if _, ok := kick.Get(p); !ok {
				return
			}
			if st := c.Set(p, "k", itValue, "v", 0, 0); st != protocol.StatusStored {
				panic("replicated SET answered " + st.String())
			}
		}
	})
	return func() {
		kick.TryPut(struct{}{})
		cl.Env.Run()
	}
}

// BenchmarkReplicatedSet is the replication layer's host-cost line.
func BenchmarkReplicatedSet(b *testing.B) {
	step := replicatedSetModel()
	step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// One SET at R=3 is 14 allocations: the request handle (1); six fabric
// messages, one transfer each (6: request, two forwards, two acks,
// response); the round (1: the Forward carries its peers, its event and the
// write frame both forwards share); an ack frame per backup (2); the stored
// item on each of the three servers (3); the response record (1). It was 38
// before the round, the messages and the request were each made one object.
func TestReplicatedSetAllocationCeiling(t *testing.T) {
	step := replicatedSetModel()
	step()
	if got := testing.AllocsPerRun(300, step); got > 14 {
		t.Errorf("one replicated SET at R=3: %v allocations, ceiling 14", got)
	}
}

// forwardHandoffModel returns a step that takes one forward from a replicator's
// engine to an applier of its pool and out again, rejected: the hand-off and
// nothing else.
func forwardHandoffModel() (step func(), rejected func() int64) {
	cl := itCluster()
	r := cl.Replicators[0]
	handoff := r.ForwardHandoffForTest()
	return func() {
		handoff()
		cl.Env.Run()
	}, func() int64 { return r.Counters.Get("corrupt-frames-rejected") }
}

// BenchmarkForwardHandoff is the host-cost line of the apply lane.
func BenchmarkForwardHandoff(b *testing.B) {
	step, _ := forwardHandoffModel()
	step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// One forward through the apply lane is no allocation: the queue hands a
// (frame, incarnation) pair by value to a parked applier, whose waiter record
// and wakeup are recycled.
func TestForwardHandoffAllocationCeiling(t *testing.T) {
	step, rejected := forwardHandoffModel()
	step()
	if got := testing.AllocsPerRun(300, step); got > 0 {
		t.Errorf("one forward through the apply lane: %v allocations, ceiling 0", got)
	}
	if n := rejected(); n != 302 {
		t.Errorf("%d of 302 forwards reached an applier", n)
	}
}

// digestModel returns a replicator of a three-server R=2 cluster holding 512
// keys at quiescence — every maintained digest computed and current — and the
// keys.
func digestModel() (*cluster.Cluster, []string) {
	cl := itCluster()
	keys := make([]string, 512)
	cl.Env.Spawn("preload", func(p *sim.Proc) {
		for i := range keys {
			keys[i] = itKey(i)
			cl.Clients[0].Set(p, keys[i], 64, uint64(i), 0, 0)
		}
	})
	cl.Env.Run()
	return cl, keys
}

// BenchmarkScrubRound and BenchmarkSetStateRefold are the host-cost lines of
// the maintained scrub digest: a round is a copy of 2×32 words per peer, and a
// record change is two XORs per peer sharing the key — neither a pass over the
// key table, which is what computeDigest costs and what both replaced.
func BenchmarkScrubRound(b *testing.B) {
	cl, _ := digestModel()
	r := cl.Replicators[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.ScrubRoundForTest()
	}
}

func BenchmarkSetStateRefold(b *testing.B) {
	cl, keys := digestModel()
	r := cl.Replicators[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.RefoldForTest(keys[i%len(keys)])
	}
}

// One scrub round toward two peers is 4 allocations — a frame and its copy of
// the digest each — whatever the table holds; one refold is none.
func TestScrubRoundAllocationCeiling(t *testing.T) {
	cl, _ := digestModel()
	r := cl.Replicators[0]
	if words := r.ScrubRoundForTest(); words != 2*2*32 {
		t.Fatalf("a round toward two peers carries %d words, want two digests of 2x32", words)
	}
	if got := testing.AllocsPerRun(300, func() { r.ScrubRoundForTest() }); got > 4 {
		t.Errorf("one scrub round: %v allocations, ceiling 4", got)
	}
	if stale, kept := r.StaleDigestsForTest(); len(stale) > 0 || kept != 2 {
		t.Errorf("maintained digests: %d kept, stale for peers %v", kept, stale)
	}
}

func TestSetStateRefoldAllocationCeiling(t *testing.T) {
	cl, keys := digestModel()
	r := cl.Replicators[0]
	r.ScrubRoundForTest() // the digests exist: a refold has something to move
	i := 0
	if got := testing.AllocsPerRun(300, func() { r.RefoldForTest(keys[i%len(keys)]); i++ }); got > 0 {
		t.Errorf("one setState refold: %v allocations, ceiling 0", got)
	}
	if stale, kept := r.StaleDigestsForTest(); len(stale) > 0 || kept != 2 {
		t.Errorf("after the refolds: %d maintained digests kept, stale for peers %v", kept, stale)
	}
}
