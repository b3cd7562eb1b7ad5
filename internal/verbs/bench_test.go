package verbs

import (
	"testing"
)

// sendModel returns a step that posts one signaled 128-byte SEND and runs
// until both completions (the peer's receive, the requester's send after the
// RC ack) have been polled. recvs bounds how many steps may be taken.
func sendModel(recvs int) (step func()) {
	r := newRig()
	for i := 0; i < recvs; i++ {
		r.qpB.PostRecv(RecvWR{})
	}
	r.env.Run()
	return func() {
		r.qpA.PostSendSetup(SendWR{Op: OpSend, Size: 128, Payload: r, Signaled: true})
		r.env.Run()
		if _, ok := r.recvB.Poll(); !ok {
			panic("no receive completion")
		}
		if _, ok := r.sendA.Poll(); !ok {
			panic("no send completion")
		}
	}
}

// readModel returns a step that posts one signaled 4 KB READ and runs until
// its completion has been polled: request out, response back.
func readModel() (step func()) {
	r := newRig()
	remote, local := r.pdB.RegisterMRSetup(4096), r.pdA.RegisterMRSetup(4096)
	remote.SetPayload("value", 4096)
	r.env.Run()
	return func() {
		r.qpA.PostSendSetup(SendWR{Op: OpRead, Size: 4096, RemoteMR: remote.LKey(), LocalMR: local, Signaled: true})
		r.env.Run()
		if c, ok := r.sendA.Poll(); !ok || c.Payload != "value" {
			panic("no READ completion")
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
// post to completion, on an idle fabric.
func BenchmarkSend(b *testing.B) { benchSteps(b, sendModel(b.N)) }
func BenchmarkRead(b *testing.B) { benchSteps(b, readModel()) }

// A signaled SEND is the wire header, the fabric message, and the three
// steps of the ack wait (start, delivered, ack returned); a READ is two
// fabric messages with a wire header each.
func TestOperationAllocationCeilings(t *testing.T) {
	for _, tc := range []struct {
		name    string
		step    func()
		ceiling float64
	}{
		{"signaled SEND", sendModel(300), 6},
		{"signaled READ", readModel(), 6},
	} {
		tc.step()
		if got := testing.AllocsPerRun(200, tc.step); got > tc.ceiling {
			t.Errorf("one %s: %v allocations, ceiling %v", tc.name, got, tc.ceiling)
		}
	}
}
