package replication_test

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"hybridkv/internal/cluster"
	"hybridkv/internal/core"
	"hybridkv/internal/metrics"
	"hybridkv/internal/protocol"
	"hybridkv/internal/replication"
	"hybridkv/internal/sim"
)

// replicatedModel builds a three-server R=3 cluster with the scrubber off, so
// a step is the operations it drives and nothing else, and a driver that runs
// op once per step.
func replicatedModel(op func(p *sim.Proc, c *core.Client)) (step func(), cl *cluster.Cluster) {
	cl = cluster.New(cluster.Config{
		Design:            cluster.HRDMAOptNonBI,
		Profile:           cluster.ClusterA(),
		Servers:           3,
		Clients:           1,
		ServerMem:         8 << 20,
		ReplicationFactor: 3,
		NoScrub:           true,
	})
	c := cl.Clients[0]
	kick := sim.NewQueue[struct{}](cl.Env, 0)
	cl.Env.Spawn("driver", func(p *sim.Proc) {
		for {
			kick.Get(p)
			op(p, c)
		}
	})
	return func() {
		kick.TryPut(struct{}{})
		cl.Env.Run() // no driver: it parks on kick between steps, and the step's allocations are what is counted
	}, cl
}

// replicatedSetModel returns a step that runs one SET end to end on the R=3
// cluster: the client's request, the coordinator's forward to both backups,
// their applies and acks, the coordinator's apply, the response.
func replicatedSetModel() (step func()) {
	step, _ = replicatedModel(func(p *sim.Proc, c *core.Client) {
		if st := c.Set(p, "k", itValue, "v", 0, 0); st != protocol.StatusStored {
			panic("replicated SET answered " + st.String())
		}
	})
	return step
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

// One SET at R=3 is no allocation. The round comes off the coordinator's free
// list and goes back once Finish has waited for both acks; the forward frame
// both backups share comes off it too, and so does each backup's ack frame off
// the backup's, each going back once the last delivery is handled. The stored
// item on each of the three servers comes off its manager's free list and
// goes back once the next SET of the key has replaced it. The request handle
// comes off the client's free list and goes back once the blocking Set has
// read its status and the answer has come; the answer comes off the
// coordinator's reply free list and goes back once the client has landed it.
// Its six fabric messages (request, two forwards, two acks, response) are
// none: each HCA reuses its transfers after delivery. It was 38 before the
// round, the messages and the request were each made one object, 14 before
// the transfers were reused, 8 before the replies were, 7 before the request
// handles were, 6 before the stored items were and 3 before the rounds and
// the frames were.
func TestReplicatedSetAllocationCeiling(t *testing.T) {
	step := replicatedSetModel()
	step()
	if got := testing.AllocsPerRun(300, step); got > 0 {
		t.Errorf("one replicated SET at R=3: %v allocations, ceiling 0", got)
	}
}

// replicatedGetModel returns a step that runs eight GET hits of one key on the
// R=3 cluster after one SET of it. The coordinator serves them all, so every
// step carries exactly one read-repair probe round: one probe frame, shared
// by both backups, which find nothing to reconcile.
func replicatedGetModel() (step func(), cl *cluster.Cluster) {
	set := false
	return replicatedModel(func(p *sim.Proc, c *core.Client) {
		if !set {
			set = true
			c.Set(p, "k", itValue, "v", 0, 0)
		}
		for range 8 {
			if v, _, st := c.Get(p, "k"); st != protocol.StatusOK || v != "v" {
				panic(fmt.Sprintf("replicated GET answered %v %v", st, v))
			}
		}
	})
}

// BenchmarkReplicatedGet is the host-cost line of replicated reads: eight
// GET hits per op, one read-repair probe round among them.
func BenchmarkReplicatedGet(b *testing.B) {
	step, _ := replicatedGetModel()
	step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// Eight RPC GET hits at R=3, one read-repair probe round among them, are no
// allocation: the probe frame comes off the coordinator's free list and goes
// back once both backups have handled it, and each GET's handle and answer
// come off their lists as a SET's do. The probe was 2 frames of its own, one
// per backup, before the frames were reused.
func TestReplicatedGetAllocationCeiling(t *testing.T) {
	step, cl := replicatedGetModel()
	step()
	msgs := cl.Fabric.MsgCount
	step()
	if n := cl.Fabric.MsgCount - msgs; n != 8*2+2 {
		t.Fatalf("a step sent %d messages, want eight requests, eight answers and one probe to each backup", n)
	}
	if got := testing.AllocsPerRun(300, step); got > 0 {
		t.Errorf("eight replicated GET hits at R=3 with a read-repair probe: %v allocations, ceiling 0", got)
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
		cl.Env.Run() // no driver: the hand-off is posted without a process; the engine's own procs run it
	}, func() int64 { return r.Counters.Val(metrics.CCorruptFramesRejected) }
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
func digestModel(t testing.TB) (*cluster.Cluster, []string) {
	cl := itCluster()
	keys := make([]string, 512)
	sim.Drive(t, cl.Env, "preload", func(p *sim.Proc) {
		for i := range keys {
			keys[i] = itKey(i)
			cl.Clients[0].Set(p, keys[i], 64, uint64(i), 0, 0)
		}
	})
	return cl, keys
}

// BenchmarkScrubRound and BenchmarkSetStateRefold are the host-cost lines of
// the maintained scrub digest: a round is a copy of 2×32 words per peer, and a
// record change is two XORs per peer sharing the key — neither a pass over the
// key table, which is what computeDigest costs and what both replaced.
func BenchmarkScrubRound(b *testing.B) {
	cl, _ := digestModel(b)
	r := cl.Replicators[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.ScrubRoundForTest()
	}
}

func BenchmarkSetStateRefold(b *testing.B) {
	cl, keys := digestModel(b)
	r := cl.Replicators[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.RefoldForTest(keys[i%len(keys)])
	}
}

// One scrub round toward two peers is no allocation, whatever the table holds:
// the frames come off the replicator's free list and go back after their last
// delivery, and each frame's copy of the digest goes into a slice an earlier
// frame gave back on its last release. One refold is none. A round was 4 while
// every frame was allocated afresh, and 2 while every digest copy was.
func TestScrubRoundAllocationCeiling(t *testing.T) {
	cl, _ := digestModel(t)
	r := cl.Replicators[0]
	if words := r.ScrubRoundForTest(); words != 2*2*32 {
		t.Fatalf("a round toward two peers carries %d words, want two digests of 2x32", words)
	}
	if got := testing.AllocsPerRun(300, func() { r.ScrubRoundForTest() }); got > 0 {
		t.Errorf("one scrub round: %v allocations, ceiling 0", got)
	}
	if stale, kept := r.StaleDigestsForTest(); len(stale) > 0 || kept != 2 {
		t.Errorf("maintained digests: %d kept, stale for peers %v", kept, stale)
	}
}

// scrubExchangeModel returns a step that runs one scrub exchange to quiescence
// between two converged replicators of digestModel's cluster: a digest from
// server 0 to server 1 that differs in the bucket of a key both hold, server
// 1's diff with its entries for that bucket, and server 0's reconcile of them,
// which finds nothing to push or pull. fabric reports the messages and bytes
// the fabric has carried.
func scrubExchangeModel(t testing.TB) (step func(), fabric func() (msgs, bytes int64)) {
	cl, keys := digestModel(t)
	from, to := cl.Replicators[0], cl.Replicators[1]
	ring := itRing(3)
	bucket := -1
	for _, key := range keys {
		if set := ring.Replicas(key, 2); slices.Contains(set, 0) && slices.Contains(set, 1) {
			bucket = int(replication.HashKey(key) % 32)
			break
		}
	}
	if bucket < 0 {
		t.Fatal("servers 0 and 1 share no key")
	}
	exchange := from.ScrubExchangeForTest(to, bucket)
	return func() {
			exchange()
			cl.Env.Run() // no driver: the exchange is posted without a process; the engines run it
		}, func() (int64, int64) {
			return cl.Fabric.MsgCount, cl.Fabric.ByteCount
		}
}

// BenchmarkScrubExchange is the host-cost line of one digest-diff exchange
// that finds the two replicas converged.
func BenchmarkScrubExchange(b *testing.B) {
	step, _ := scrubExchangeModel(b)
	step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// One scrub exchange is no allocation: the diff's bucket list and entries go
// into slices earlier frames gave back, the responder's list of its keys in
// the differing bucket into one scratch slice, and the initiator's set of the
// peer's keys into one map, cleared after each diff. It was 14 on a warmed rig
// while each of them, and the digest's copy, was made per exchange (the slices
// grown append by append). The exchange sends one message, the diff, and the
// diff carries entries: nothing is pushed or pulled.
func TestScrubExchangeAllocationCeiling(t *testing.T) {
	step, fabric := scrubExchangeModel(t)
	step()
	msgs, bytes := fabric()
	step()
	if m, b := fabric(); m-msgs != 1 || b-bytes <= 64+8 {
		t.Fatalf("an exchange sent %d messages of %d bytes, want one diff carrying entries", m-msgs, b-bytes)
	}
	if got := testing.AllocsPerRun(300, step); got > 0 {
		t.Errorf("one scrub exchange: %v allocations, ceiling 0", got)
	}
}

func TestSetStateRefoldAllocationCeiling(t *testing.T) {
	cl, keys := digestModel(t)
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

// A Forward is the replication round a write's coordinator waits on, its
// done event included; it comes off a free list, so its size is held memory,
// not bytes per operation. Its 16-byte event makes it 184 bytes, still the
// 192-byte size class it was in at 192 with a 24-byte event.
func TestForwardSize(t *testing.T) {
	if got := unsafe.Sizeof(replication.Forward{}); got != 184 {
		t.Errorf("Forward is %d bytes, want 184 (192 at f0af065)", got)
	}
}
