package verbs

import (
	"fmt"
	"testing"
)

// sendModel returns a step that posts one 128-byte SEND and runs until its
// completions have been polled: the peer's receive and, for a signaled one,
// the requester's send after the RC ack. recvs bounds how many steps may be
// taken.
func sendModel(recvs int, signaled bool) (step func()) {
	r := newRig()
	for i := 0; i < recvs; i++ {
		r.qpB.PostRecv(RecvWR{})
	}
	r.env.Run()
	return func() {
		r.qpA.PostSendSetup(SendWR{Op: OpSend, Size: 128, Payload: r, Signaled: signaled})
		r.env.Run()
		if _, ok := r.recvB.Poll(); !ok {
			panic("no receive completion")
		}
		if _, ok := r.sendA.Poll(); ok != signaled {
			panic("send completion: got one is " + fmt.Sprint(ok))
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

// replenishModel returns a step that takes two laps of a 64-deep receive
// queue the way every connection does for life: consume the oldest RECV, post
// one in its place. (Two laps a step, because AllocsPerRun rounds down and a
// slice eaten from the front reallocates a little less than once a lap.)
func replenishModel() (step func()) {
	r := newRig()
	for i := 0; i < 64; i++ {
		r.qpB.PostRecv(RecvWR{})
	}
	return func() {
		for i := 0; i < 128; i++ {
			if _, ok := r.qpB.consumeRecv(); !ok || r.qpB.RecvDepth() != 63 {
				panic("receive queue lost a WR")
			}
			r.qpB.PostRecv(RecvWR{})
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
func BenchmarkSend(b *testing.B)         { benchSteps(b, sendModel(b.N, false)) }
func BenchmarkSignaledSend(b *testing.B) { benchSteps(b, sendModel(b.N, true)) }
func BenchmarkRead(b *testing.B)         { benchSteps(b, readModel()) }

// A message leg is one allocation, the transfer: wire record, fabric Flight
// and delivery callback event in one. An unsignaled SEND is one leg, a READ
// two (request out, response back); a signaled SEND adds the three steps of
// its ack wait (start, delivered, ack returned).
func TestOperationAllocationCeilings(t *testing.T) {
	for _, tc := range []struct {
		name    string
		step    func()
		ceiling float64
	}{
		{"unsignaled SEND", sendModel(300, false), 1},
		{"signaled SEND", sendModel(300, true), 4},
		{"signaled READ", readModel(), 2},
		{"receive queue replenished through two laps", replenishModel(), 0},
	} {
		tc.step()
		if got := testing.AllocsPerRun(200, tc.step); got > tc.ceiling {
			t.Errorf("one %s: %v allocations, ceiling %v", tc.name, got, tc.ceiling)
		}
	}
}
