package verbs

import (
	"testing"

	"hybridkv/internal/pool"
	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
	"hybridkv/internal/simnet"
)

// sendModel returns a step that posts a receive at the peer and one 128-byte
// SEND, and runs until the peer's receive completion has been polled.
func sendModel(testing.TB) (step func()) {
	r := newRig()
	r.env.Run() // no driver: the rig's start-up is all that runs
	return func() {
		r.qpB.PostRecv(RecvWR{})
		r.qpA.PostSendSetup(SendWR{Op: OpSend, Size: 128, Payload: r})
		r.env.Run() // no driver: the step posts without a process, and its allocations are what is counted
		if _, ok := r.recvB.Poll(); !ok {
			panic("no receive completion")
		}
	}
}

// readModel returns a step that posts one signaled 4 KB READ and runs until
// its completion has been polled: request out, response back.
func readModel(testing.TB) (step func()) {
	r := newRig()
	remote, local := r.pdB.RegisterMRSetup(4096), r.pdA.RegisterMRSetup(4096)
	remote.SetSegment(0, "value", 4096)
	r.env.Run() // no driver: the rig's start-up is all that runs
	return func() {
		r.qpA.PostSendSetup(SendWR{Op: OpRead, Size: 4096, RemoteMR: remote.LKey(), LocalMR: local, Signaled: true})
		r.env.Run() // no driver: the step posts without a process, and its allocations are what is counted
		if c, ok := r.sendA.Poll(); !ok || c.Payload != "value" {
			panic("no READ completion")
		}
	}
}

// heldReadModel returns a step that publishes a fresh held bucket at a
// segment of a remote MR, as a server's directory does at every publish,
// posts one signaled READ of it, and runs until its completion has been
// polled and its payload released, as a client's resolver does: the bucket
// the step before published goes back on the list once the segment and the
// READ that captured it have let go, so the list makes two and the segment
// holds one.
func heldReadModel(testing.TB) (step func()) {
	r := newRig()
	buckets := new(pool.List[protocol.DirBucket, *protocol.DirBucket])
	remote := r.pdB.RegisterMRSetup(protocol.DirBucketBytes)
	r.env.Run() // no driver: the rig's start-up is all that runs
	return func() {
		b := protocol.NewDirBucket(buckets)
		remote.SetSegment(0, b, protocol.DirBucketBytes)
		b.Release()
		r.qpA.PostSendSetup(SendWR{Op: OpRead, Size: protocol.DirBucketBytes, RemoteMR: remote.LKey(), Signaled: true})
		r.env.Run() // no driver: the step posts without a process, and its allocations are what is counted
		c, ok := r.sendA.Poll()
		if !ok || c.Payload != b {
			panic("no READ completion of the published bucket")
		}
		Release(c.Payload)
		if buckets.Made > 2 || buckets.Len() != buckets.Made-1 {
			panic("held READ model: a bucket neither held by the segment nor free")
		}
	}
}

// streamModel returns a step that sends one 128-byte message on an IPoIB
// stream and runs until the peer's inbox holds it.
func streamModel(tb testing.TB) (step func()) {
	env := sim.NewEnv()
	f := simnet.New(env, simnet.IPoIB())
	a, b := NewHost(f.AddNode("a")), NewHost(f.AddNode("b"))
	s := a.Dial(b)
	peer, _ := b.accept.TryGet()
	send := sim.Stepper(tb, env, "sender", func(p *sim.Proc) { s.Send(p, 128, s) })
	return func() {
		send()
		if _, ok := peer.inbox.TryGet(); !ok {
			panic("no stream message")
		}
	}
}

// allocTable is the verbs layer's line of make allocs: one verbs operation,
// post to completion, on an idle fabric; a publish and a READ of a held
// segment; one IPoIB message, send to the peer's inbox.
//
// A message leg is no allocation: its transfer — wire record, fabric Flight
// and delivery callback event in one — comes off the posting HCA's free list
// and goes back on it after delivery. A SEND is one leg, a READ two (request
// out, response back), an IPoIB stream message one, carried the same way by
// its Host. Each was one allocation per leg before the free lists. A READ of
// a held segment holds what it captured and hands its reader a hold of its
// own, so the record it read goes back on its list, not to the GC.
var allocTable = []struct {
	name    string
	model   func(testing.TB) (step func())
	ceiling float64
}{
	{"Send", sendModel, 0},
	{"Read", readModel, 0},
	{"StreamSend", streamModel, 0},
	{"HeldRead", heldReadModel, 0},
}

// TestOperationAllocationCeilings logs each row's name=count for make allocs.
func TestOperationAllocationCeilings(t *testing.T) {
	for _, row := range allocTable {
		t.Run(row.name, func(t *testing.T) {
			step := row.model(t)
			step() // warm: pools, rings and maps at size
			got := testing.AllocsPerRun(200, step)
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
