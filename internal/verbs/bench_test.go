package verbs

import "testing"

// sendModel returns a step that posts one 128-byte SEND and runs until the
// peer's receive completion has been polled. recvs bounds how many steps may
// be taken.
func sendModel(recvs int) (step func()) {
	r := newRig()
	for i := 0; i < recvs; i++ {
		r.qpB.PostRecv(RecvWR{})
	}
	r.env.Run()
	return func() {
		r.qpA.PostSendSetup(SendWR{Op: OpSend, Size: 128, Payload: r})
		r.env.Run()
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

// A message leg is one allocation, the transfer: wire record, fabric Flight
// and delivery callback event in one. A SEND is one leg, a READ two (request
// out, response back).
func TestOperationAllocationCeilings(t *testing.T) {
	for _, tc := range []struct {
		name    string
		step    func()
		ceiling float64
	}{
		{"SEND", sendModel(300), 1},
		{"signaled READ", readModel(), 2},
	} {
		tc.step()
		if got := testing.AllocsPerRun(200, tc.step); got > tc.ceiling {
			t.Errorf("one %s: %v allocations, ceiling %v", tc.name, got, tc.ceiling)
		}
	}
}
