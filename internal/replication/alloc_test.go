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
func replicatedModel(tb testing.TB, op func(p *sim.Proc, c *core.Client)) (step func(), cl *cluster.Cluster) {
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
	return sim.Stepper(tb, cl.Env, "driver", func(p *sim.Proc) { op(p, c) }), cl
}

// replicatedSetModel returns a step that runs one SET end to end on the R=3
// cluster: the client's request, the coordinator's forward to both backups,
// their applies and acks, the coordinator's apply, the response.
func replicatedSetModel(tb testing.TB) (step func()) {
	step, _ = replicatedModel(tb, func(p *sim.Proc, c *core.Client) {
		if st := c.Set(p, "k", itValue, "v", 0, 0); st != protocol.StatusStored {
			panic("replicated SET answered " + st.String())
		}
	})
	return step
}

// replicatedGetModel returns a step that runs eight GET hits of one key on the
// R=3 cluster after one SET of it. The coordinator serves them all, so every
// step carries exactly one read-repair probe round: one probe frame, shared
// by both backups, which find nothing to reconcile — eighteen messages.
func replicatedGetModel(tb testing.TB) (step func()) {
	gets, cl := replicatedModel(tb, func(p *sim.Proc, c *core.Client) {
		for range 8 {
			if v, _, st := c.Get(p, "k"); st != protocol.StatusOK || v != "v" {
				panic(fmt.Sprintf("replicated GET answered %v %v", st, v))
			}
		}
	})
	sim.Drive(tb, cl.Env, "set", func(p *sim.Proc) { cl.Clients[0].Set(p, "k", itValue, "v", 0, 0) })
	return func() {
		msgs := cl.Fabric.MsgCount
		if gets(); cl.Fabric.MsgCount-msgs != 8*2+2 {
			panic("replicated GET model: a step sent other than eight requests, eight answers and one probe to each backup")
		}
	}
}

// forwardHandoffModel returns a step that takes one forward from a replicator's
// engine to an applier of its pool and out again, rejected: the hand-off and
// nothing else.
func forwardHandoffModel(testing.TB) (step func()) {
	cl := itCluster()
	r := cl.Replicators[0]
	handoff := r.ForwardHandoffForTest()
	return func() {
		rejected := r.Counters.Val(metrics.CCorruptFramesRejected)
		handoff()
		cl.Env.Run() // no driver: the hand-off is posted without a process; the engine's own procs run it
		if r.Counters.Val(metrics.CCorruptFramesRejected) != rejected+1 {
			panic("forward hand-off model: the forward did not reach an applier")
		}
	}
}

// digestModel returns a replicator of a three-server R=2 cluster holding 512
// keys at quiescence — every maintained digest computed and current — and the
// keys. When tb ends, both of its maintained digests must still match a fold
// over its table.
func digestModel(tb testing.TB) (*cluster.Cluster, []string) {
	cl := itCluster()
	keys := make([]string, 512)
	sim.Drive(tb, cl.Env, "preload", func(p *sim.Proc) {
		for i := range keys {
			keys[i] = itKey(i)
			cl.Clients[0].Set(p, keys[i], 64, uint64(i), 0, 0)
		}
	})
	tb.Cleanup(func() {
		if stale, kept := cl.Replicators[0].StaleDigestsForTest(); len(stale) > 0 || kept != 2 {
			tb.Errorf("maintained digests: %d kept, stale for peers %v", kept, stale)
		}
	})
	return cl, keys
}

// scrubRoundModel and refoldModel are the maintained scrub digest's steps: a
// round is a copy of 2×32 words per peer, and a record change is two XORs per
// peer sharing the key — neither a pass over the key table, which is what
// computeDigest costs and what both replaced.
func scrubRoundModel(tb testing.TB) (step func()) {
	cl, _ := digestModel(tb)
	r := cl.Replicators[0]
	return func() {
		if words := r.ScrubRoundForTest(); words != 2*2*32 {
			panic("scrub round model: a round toward two peers carries other than two digests of 2x32 words")
		}
	}
}

func refoldModel(tb testing.TB) (step func()) {
	cl, keys := digestModel(tb)
	r := cl.Replicators[0]
	r.ScrubRoundForTest() // the digests exist: a refold has something to move
	i := 0
	return func() { r.RefoldForTest(keys[i%len(keys)]); i++ }
}

// scrubExchangeModel returns a step that runs one scrub exchange to quiescence
// between two converged replicators of digestModel's cluster: a digest from
// server 0 to server 1 that differs in the bucket of a key both hold, server
// 1's diff with its entries for that bucket, and server 0's reconcile of them,
// which finds nothing to push or pull: one message, the diff, carrying
// entries.
func scrubExchangeModel(tb testing.TB) (step func()) {
	cl, keys := digestModel(tb)
	from, to := cl.Replicators[0], cl.Replicators[1]
	ring := itRing(3)
	bucket := -1
	for _, key := range keys {
		if set := ring.Replicas(protocol.KeyOf(key), 2); slices.Contains(set, 0) && slices.Contains(set, 1) {
			bucket = int(replication.HashKey(protocol.KeyOf(key)) % 32)
			break
		}
	}
	if bucket < 0 {
		tb.Fatal("servers 0 and 1 share no key")
	}
	exchange := from.ScrubExchangeForTest(to, bucket)
	return func() {
		msgs, bytes := cl.Fabric.MsgCount, cl.Fabric.ByteCount
		exchange()
		cl.Env.Run() // no driver: the exchange is posted without a process; the engines run it
		if cl.Fabric.MsgCount-msgs != 1 || cl.Fabric.ByteCount-bytes <= 64+8 {
			panic("scrub exchange model: an exchange sent other than one diff carrying entries")
		}
	}
}

// ringModel returns a step that looks up one key's replica set on a warm
// four-server ring — what the anti-entropy digest pays per key per round, and
// the client per request.
func ringModel(testing.TB) (step func()) {
	ring := replication.NewRing()
	for id := 0; id < 4; id++ {
		ring.Add(id)
	}
	keys := make([]string, 512)
	for i := range keys {
		keys[i] = fmt.Sprintf("alloc:%04d", i)
		ring.Replicas(protocol.KeyOf(keys[i]), 3)
	}
	i := 0
	return func() { ring.Replicas(protocol.KeyOf(keys[i%len(keys)]), 3); i++ }
}

// allocTable is the replication layer's line of make allocs.
//
// A warm ring's lookup is no allocation: each point memoises its set.
//
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
//
// Eight RPC GET hits at R=3, one read-repair probe round among them, are no
// allocation: the probe frame comes off the coordinator's free list and goes
// back once both backups have handled it, and each GET's handle and answer
// come off their lists as a SET's do. The probe was 2 frames of its own, one
// per backup, before the frames were reused.
//
// One forward through the apply lane is no allocation: the queue hands a
// (frame, incarnation) pair by value to a parked applier, whose waiter record
// and wakeup are recycled.
//
// One scrub round toward two peers is no allocation, whatever the table holds:
// the frames come off the replicator's free list and go back after their last
// delivery, and each frame's copy of the digest goes into a slice an earlier
// frame gave back on its last release. One refold is none. A round was 4 while
// every frame was allocated afresh, and 2 while every digest copy was.
//
// One scrub exchange is no allocation: the diff's bucket list and entries go
// into slices earlier frames gave back, the responder's list of its keys in
// the differing bucket into one scratch slice, and the initiator merges its
// own list with the diff's entries, both in key order. It was 14 on a warmed
// rig while each of them, and the digest's copy, was made per exchange (the
// slices grown append by append).
var allocTable = []struct {
	name    string
	model   func(testing.TB) (step func())
	ceiling float64
}{
	{"RingReplicas", ringModel, 0},
	{"ReplicatedSet", replicatedSetModel, 0},
	{"ReplicatedGet", replicatedGetModel, 0},
	{"ForwardHandoff", forwardHandoffModel, 0},
	{"ScrubRound", scrubRoundModel, 0},
	{"SetStateRefold", refoldModel, 0},
	{"ScrubExchange", scrubExchangeModel, 0},
}

// TestReplicationAllocationCeilings logs each row's name=count for make allocs.
func TestReplicationAllocationCeilings(t *testing.T) {
	for _, row := range allocTable {
		t.Run(row.name, func(t *testing.T) {
			step := row.model(t)
			step() // warm: pools, rings and maps at size
			got := testing.AllocsPerRun(300, step)
			if t.Logf("%s=%v", row.name, got); got > row.ceiling {
				t.Errorf("%s=%v, ceiling %v", row.name, got, row.ceiling)
			}
		})
	}
}

// BenchmarkAllocs runs allocTable's rows as sub-benchmarks.
func BenchmarkAllocs(b *testing.B) {
	for _, row := range allocTable {
		b.Run(row.name, func(b *testing.B) {
			step := row.model(b)
			step()
			b.ReportAllocs()
			for b.Loop() {
				step()
			}
		})
	}
}

// A Forward is the replication round a write's coordinator waits on, its
// done event included; it comes off a free list, so its size is held memory,
// not bytes per operation. It is 192 bytes, the 192-byte size class: a
// 16-byte event, and its key with the key's carried hash.
func TestForwardSize(t *testing.T) {
	if got := unsafe.Sizeof(replication.Forward{}); got != 192 {
		t.Errorf("Forward is %d bytes, want 192", got)
	}
}
