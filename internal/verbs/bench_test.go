package verbs

import (
	"testing"

	"hybridkv/internal/pool"
	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
	"hybridkv/internal/simnet"
)

// sendModel returns a step that posts one 128-byte SEND and runs until the
// peer's receive completion has been polled. recvs bounds how many steps may
// be taken.
func sendModel(recvs int) (step func()) {
	r := newRig()
	for i := 0; i < recvs; i++ {
		r.qpB.PostRecv(RecvWR{})
	}
	r.env.Run() // no driver: the rig's start-up is all that runs
	return func() {
		r.qpA.PostSendSetup(SendWR{Op: OpSend, Size: 128, Payload: r})
		r.env.Run() // no driver: the step posts without a process, and its allocations are what is counted
		if _, ok := r.recvB.Poll(); !ok {
			panic("no receive completion")
		}
	}
}

// readModel returns a step that posts one signaled 4 KB READ and runs until
// its completion has been polled: request out, response back.
func readModel() (step func()) {
	r := newRig()
	remote, local := r.pdB.RegisterMRSetup(4096), r.pdA.RegisterMRSetup(4096)
	remote.SetPayload("value", 4096)
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
// READ that captured it have let go. Also returns the list.
func heldReadModel() (step func(), buckets *pool.List[protocol.DirBucket, *protocol.DirBucket]) {
	r := newRig()
	buckets = new(pool.List[protocol.DirBucket, *protocol.DirBucket])
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
	}, buckets
}

// streamModel returns a step that sends one 128-byte message on an IPoIB
// stream and runs until the peer's inbox holds it.
func streamModel() (step func()) {
	env := sim.NewEnv()
	f := simnet.New(env, simnet.IPoIB())
	a, b := NewHost(f.AddNode("a")), NewHost(f.AddNode("b"))
	s := a.Dial(b)
	peer, _ := b.accept.TryGet()
	kick := sim.NewQueue[struct{}](env, 0)
	env.Spawn("sender", func(p *sim.Proc) {
		for {
			if _, ok := kick.Get(p); !ok {
				return
			}
			s.Send(p, 128, s)
		}
	})
	env.Run() // no driver: the rig's start-up is all that runs
	return func() {
		kick.TryPut(struct{}{})
		env.Run() // no driver: the sender parks on kick between steps, and the step's allocations are what is counted
		if _, ok := peer.inbox.TryGet(); !ok {
			panic("no stream message")
		}
	}
}

func benchSteps(b *testing.B, step func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkSend and BenchmarkRead are the host cost of one verbs operation,
// post to completion, on an idle fabric; BenchmarkHeldRead is a publish and a
// READ of a held segment; BenchmarkStreamSend is one IPoIB message, send to
// the peer's inbox.
func BenchmarkSend(b *testing.B)       { benchSteps(b, sendModel(b.N)) }
func BenchmarkRead(b *testing.B)       { benchSteps(b, readModel()) }
func BenchmarkStreamSend(b *testing.B) { benchSteps(b, streamModel()) }

func BenchmarkHeldRead(b *testing.B) {
	step, _ := heldReadModel()
	benchSteps(b, step)
}

// A message leg is no allocation: its transfer — wire record, fabric Flight
// and delivery callback event in one — comes off the posting HCA's free list
// and goes back on it after delivery. A SEND is one leg, a READ two (request
// out, response back), an IPoIB stream message one, carried the same way by
// its Host. Each was one allocation per leg before the free lists. A READ of
// a held segment holds what it captured and hands its reader a hold of its
// own, so the record it read goes back on its list, not to the GC.
func TestOperationAllocationCeilings(t *testing.T) {
	heldRead, buckets := heldReadModel()
	for _, tc := range []struct {
		name    string
		step    func()
		ceiling float64
	}{
		{"SEND", sendModel(300), 0},
		{"signaled READ", readModel(), 0},
		{"signaled READ of a held segment", heldRead, 0},
		{"IPoIB stream send", streamModel(), 0},
	} {
		tc.step()
		if got := testing.AllocsPerRun(200, tc.step); got > tc.ceiling {
			t.Errorf("one %s: %v allocations, ceiling %v", tc.name, got, tc.ceiling)
		}
	}
	// The segment holds the last bucket; the one before it is free.
	if buckets.Made != 2 || buckets.Len() != 1 {
		t.Errorf("held READs made %d buckets, %d free: want 2, 1 free", buckets.Made, buckets.Len())
	}
}
