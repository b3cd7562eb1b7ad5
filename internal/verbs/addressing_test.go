package verbs

import (
	"fmt"
	"testing"

	"hybridkv/internal/sim"
	"hybridkv/internal/simnet"
)

// Two QP pairs connect the same two devices, and each device's QPs share one
// send CQ and one receive CQ, so only a message's address tells the pairs
// apart. Every QP posts a SEND, a WRITE_IMM and a signaled READ of a segment
// its peer published for it: each receive lands on the peer QP the message
// was posted to, each READ completes on the QP that posted it with that
// QP's segment, and each QP's receives are consumed by its own messages.
func TestTwoQPPairsBetweenTheSameDevices(t *testing.T) {
	env := sim.NewEnv()
	f := simnet.New(env, simnet.FDRInfiniBand())
	devs := [2]*Device{OpenDevice(f.AddNode("a")), OpenDevice(f.AddNode("b"))}
	var sendCQ, recvCQ [2]*CQ
	var mr [2]*MR
	var ends [2][2]*QP // ends[side][pair]
	for s, d := range devs {
		sendCQ[s], recvCQ[s] = d.CreateCQ(0), d.CreateCQ(0)
		mr[s] = d.AllocPD().RegisterMRSetup(4096)
		for i := range ends[s] {
			ends[s][i] = d.CreateQP(sendCQ[s], recvCQ[s])
			mr[s].SetSegment(int64(64*i), fmt.Sprintf("seg %c%d", 'a'+s, i), 64)
		}
	}
	for i := range ends[0] {
		Connect(ends[0][i], ends[1][i])
	}
	// Post the pairs crossed — pair 1 before pair 0, and b's after a's — so
	// arrival order cannot stand in for the address. wantRecv names the QP
	// each SEND and WRITE_IMM payload is addressed to; wantRead the QP and
	// segment of each READ, by WRID.
	wantRecv := make(map[string]*QP)
	type read struct {
		qp  *QP
		seg string
	}
	wantRead := make(map[uint64]read)
	for s := range ends {
		peer := 1 - s
		for i := len(ends[s]) - 1; i >= 0; i-- {
			qp, to := ends[s][i], ends[peer][i]
			send, write := fmt.Sprintf("send %c%d", 'a'+s, i), fmt.Sprintf("write %c%d", 'a'+s, i)
			wrid := uint64(10*s + i)
			wantRecv[send], wantRecv[write] = to, to
			wantRead[wrid] = read{qp, fmt.Sprintf("seg %c%d", 'a'+peer, i)}
			to.PostRecv(RecvWR{})
			to.PostRecv(RecvWR{})
			qp.PostSendSetup(SendWR{Op: OpSend, Size: 64, Payload: send})
			qp.PostSendSetup(SendWR{Op: OpWriteImm, Size: 64, Payload: write, RemoteMR: mr[peer].LKey()})
			qp.PostSendSetup(SendWR{WRID: wrid, Op: OpRead, RemoteMR: mr[peer].LKey(), RemoteOff: int64(64 * i), Signaled: true})
		}
	}
	env.Run() // no driver: every WR is posted without a process, and the CQs are polled after the run

	for s := range devs {
		for c, ok := recvCQ[s].Poll(); ok; c, ok = recvCQ[s].Poll() {
			want, known := wantRecv[fmt.Sprint(c.Payload)]
			if !known {
				t.Errorf("device %d: receive completion %v: not a posted payload, or delivered twice", s, c.Payload)
				continue
			}
			if c.QP != want {
				t.Errorf("device %d: %q completed on another QP than the one it was addressed to", s, c.Payload)
			}
			delete(wantRecv, fmt.Sprint(c.Payload))
		}
		for c, ok := sendCQ[s].Poll(); ok; c, ok = sendCQ[s].Poll() {
			want, known := wantRead[c.WRID]
			if !known {
				t.Errorf("device %d: READ completion for WRID %d: not posted here, or completed twice", s, c.WRID)
				continue
			}
			if c.QP != want.qp || c.Payload != want.seg {
				t.Errorf("device %d: READ %d completed with %v on another QP or segment than its own (%s)", s, c.WRID, c.Payload, want.seg)
			}
			delete(wantRead, c.WRID)
		}
	}
	for payload := range wantRecv {
		t.Errorf("%q never completed", payload)
	}
	for wrid, want := range wantRead {
		t.Errorf("READ %d (%s) never completed", wrid, want.seg)
	}
	for s := range ends {
		for i, qp := range ends[s] {
			if qp.RecvDepth() != 0 {
				t.Errorf("QP %c%d has %d receives left, want both taken by its own messages", 'a'+s, i, qp.RecvDepth())
			}
		}
	}
}

// Two IPoIB connections join the same two hosts: each message, sent on them
// crossed, arrives on the peer of the stream it was sent on.
func TestTwoStreamsBetweenTheSameHosts(t *testing.T) {
	env := sim.NewEnv()
	f := simnet.New(env, simnet.IPoIB())
	hA, hB := NewHost(f.AddNode("a")), NewHost(f.AddNode("b"))
	var dialed, accepted [2]*Stream
	var got [2][2]any // got[side][stream]
	sim.DriveUntil(t, env, -1,
		sim.Driver{Name: "b", Fn: func(p *sim.Proc) {
			for i := range accepted {
				accepted[i] = hB.Accept(p) // in dial order
			}
			for i := len(accepted) - 1; i >= 0; i-- {
				accepted[i].Send(p, 64, fmt.Sprintf("from b%d", i))
			}
			for i, s := range accepted {
				got[1][i] = s.Recv(p).Payload
			}
		}},
		sim.Driver{Name: "a", Fn: func(p *sim.Proc) {
			for i := range dialed {
				dialed[i] = hA.Dial(hB)
			}
			for i := len(dialed) - 1; i >= 0; i-- {
				dialed[i].Send(p, 64, fmt.Sprintf("from a%d", i))
			}
			for i, s := range dialed {
				got[0][i] = s.Recv(p).Payload
			}
		}})
	for i := range dialed {
		if want := fmt.Sprintf("from b%d", i); got[0][i] != want {
			t.Errorf("dialed stream %d received %v, want %q", i, got[0][i], want)
		}
		if want := fmt.Sprintf("from a%d", i); got[1][i] != want {
			t.Errorf("accepted stream %d received %v, want %q", i, got[1][i], want)
		}
	}
}
