package verbs

import (
	"testing"

	"hybridkv/internal/sim"
	"hybridkv/internal/simnet"
)

// rig builds two connected RC QPs on an FDR fabric.
type rig struct {
	env          *sim.Env
	devA, devB   *Device
	pdA, pdB     *PD
	qpA, qpB     *QP
	sendA, recvA *CQ
	sendB, recvB *CQ
}

func newRig() *rig {
	env := sim.NewEnv()
	f := simnet.New(env, simnet.FDRInfiniBand())
	r := &rig{env: env}
	r.devA = OpenDevice(f.AddNode("a"))
	r.devB = OpenDevice(f.AddNode("b"))
	r.pdA, r.pdB = r.devA.AllocPD(), r.devB.AllocPD()
	r.sendA, r.recvA = r.devA.CreateCQ(0), r.devA.CreateCQ(0)
	r.sendB, r.recvB = r.devB.CreateCQ(0), r.devB.CreateCQ(0)
	r.qpA = r.devA.CreateQP(r.sendA, r.recvA)
	r.qpB = r.devB.CreateQP(r.sendB, r.recvB)
	Connect(r.qpA, r.qpB)
	return r
}

func TestSendRecvDeliversPayload(t *testing.T) {
	r := newRig()
	r.qpB.PostRecv(RecvWR{})
	var got Completion
	sim.DriveUntil(t, r.env, -1,
		sim.Driver{Name: "server", Fn: func(p *sim.Proc) {
			got = r.recvB.WaitPoll(p)
		}},
		sim.Driver{Name: "client", Fn: func(p *sim.Proc) {
			r.qpA.PostSend(p, SendWR{WRID: 1, Op: OpSend, Size: 128, Payload: "req"})
		}})
	if got.QPN != r.qpB.QPN() || got.Payload != "req" {
		t.Errorf("recv completion %+v", got)
	}
	if r.qpB.RecvDepth() != 0 {
		t.Errorf("SEND did not consume the RECV")
	}
}

func TestSendWithoutRecvPanics(t *testing.T) {
	r := newRig()
	defer func() {
		if recover() == nil {
			t.Errorf("RNR condition did not panic")
		}
	}()
	sim.Drive(t, r.env, "client", func(p *sim.Proc) {
		r.qpA.PostSend(p, SendWR{WRID: 1, Op: OpSend, Size: 64})
	})
}

func TestRDMAWriteImmConsumesRecv(t *testing.T) {
	r := newRig()
	mr := r.pdB.RegisterMRSetup(4096)
	r.qpB.PostRecv(RecvWR{})
	var got Completion
	sim.DriveUntil(t, r.env, -1,
		sim.Driver{Name: "server", Fn: func(p *sim.Proc) { got = r.recvB.WaitPoll(p) }},
		sim.Driver{Name: "client", Fn: func(p *sim.Proc) {
			r.qpA.PostSend(p, SendWR{
				Op: OpWriteImm, Size: 512, Payload: "x", RemoteMR: mr.LKey(),
			})
		}})
	if got.QPN != r.qpB.QPN() || got.Payload != "x" {
		t.Errorf("WRITE_IMM completion %+v", got)
	}
	if r.qpB.RecvDepth() != 0 {
		t.Errorf("WRITE_IMM did not consume the RECV")
	}
}

func TestRDMAReadFetchesRemoteMR(t *testing.T) {
	r := newRig()
	remote := r.pdB.RegisterMRSetup(1 << 20)
	remote.SetSegment(4096, "remote-data", 100*1024)
	local := r.pdA.RegisterMRSetup(1 << 20)
	var comp Completion
	var doneAt sim.Time
	sim.Drive(t, r.env, "client", func(p *sim.Proc) {
		r.qpA.PostSend(p, SendWR{
			WRID: 11, Op: OpRead, RemoteMR: remote.LKey(), RemoteOff: 4096,
			LocalMR: local, Signaled: true,
		})
		comp = r.sendA.WaitPoll(p)
		doneAt = p.Now()
	})
	if comp.WRID != 11 || comp.QPN != r.qpA.QPN() || comp.Payload != "remote-data" {
		t.Errorf("READ completion %+v", comp)
	}
	min := 2*simnet.PropDelay + simnet.FDRInfiniBand().SerializeTime(100*1024)
	if doneAt < min {
		t.Errorf("READ completed at %v, faster than a round trip + data (%v)", doneAt, min)
	}
	// An offset nothing is published at reads empty, and data larger than
	// the local region is refused when it lands.
	sim.Drive(t, r.env, "client", func(p *sim.Proc) {
		r.qpA.PostSend(p, SendWR{WRID: 12, Op: OpRead, RemoteMR: remote.LKey(), LocalMR: local, Signaled: true})
		comp = r.sendA.WaitPoll(p)
	})
	if comp.WRID != 12 || comp.Payload != nil {
		t.Errorf("READ of an unpublished offset: completion %+v, want WRID 12 and no payload", comp)
	}
	small := r.pdA.RegisterMRSetup(1024)
	r.qpA.PostSendSetup(SendWR{WRID: 13, Op: OpRead, RemoteMR: remote.LKey(), RemoteOff: 4096, LocalMR: small, Signaled: true})
	defer func() {
		if recover() == nil {
			t.Errorf("a READ's %d bytes landed in a %d-byte MR", 100*1024, 1024)
		}
	}()
	r.env.Run() // no driver: the READ's response is a callback, and its panic is what is tested
}

func TestNonInlineReusableAfterSerialization(t *testing.T) {
	r := newRig()
	r.qpB.PostRecv(RecvWR{})
	size := 1 << 20
	var reusableAt sim.Time
	sim.Drive(t, r.env, "client", func(p *sim.Proc) {
		ev := r.qpA.PostSend(p, SendWR{Op: OpSend, Size: size})
		p.Wait(ev)
		reusableAt = p.Now()
	})
	min := simnet.FDRInfiniBand().SerializeTime(size)
	if reusableAt < min {
		t.Errorf("1MB buffer reusable at %v, before DMA completes (%v)", reusableAt, min)
	}
}

func TestQPOrderingPreserved(t *testing.T) {
	r := newRig()
	for i := 0; i < 10; i++ {
		r.qpB.PostRecv(RecvWR{})
	}
	var got []uint64
	sim.DriveUntil(t, r.env, -1,
		sim.Driver{Name: "server", Fn: func(p *sim.Proc) {
			for i := 0; i < 10; i++ {
				c := r.recvB.WaitPoll(p)
				got = append(got, c.Payload.(uint64))
			}
		}},
		sim.Driver{Name: "client", Fn: func(p *sim.Proc) {
			for i := 0; i < 10; i++ {
				r.qpA.PostSend(p, SendWR{Op: OpSend, Size: 64, Payload: uint64(i)})
			}
		}})
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("RC ordering violated: %v", got)
		}
	}
}

func TestIPoIBStreamRoundTrip(t *testing.T) {
	env := sim.NewEnv()
	f := simnet.New(env, simnet.IPoIB())
	hA := NewHost(f.AddNode("client"))
	hB := NewHost(f.AddNode("server"))
	var reply StreamMsg
	var rtt sim.Time
	sim.DriveUntil(t, env, -1,
		sim.Driver{Name: "server", Fn: func(p *sim.Proc) {
			s := hB.Accept(p)
			m := s.Recv(p)
			s.Send(p, m.Size, "pong:"+m.Payload.(string))
		}},
		sim.Driver{Name: "client", Fn: func(p *sim.Proc) {
			s := hA.Dial(hB)
			t0 := p.Now()
			s.Send(p, 1024, "ping")
			reply = s.Recv(p)
			rtt = p.Now() - t0
		}})
	if reply.Payload != "pong:ping" {
		t.Errorf("reply %+v", reply)
	}
	// Kernel-stack round trip must exceed 2× the IPoIB per-side costs.
	spec := simnet.IPoIB()
	min := 2 * (spec.SendCPU + spec.SegCPU + simnet.PropDelay + spec.RecvCPU)
	if rtt < min {
		t.Errorf("IPoIB RTT %v below floor %v", rtt, min)
	}
}

func TestIPoIBOrderedDelivery(t *testing.T) {
	env := sim.NewEnv()
	f := simnet.New(env, simnet.IPoIB())
	hA := NewHost(f.AddNode("a"))
	hB := NewHost(f.AddNode("b"))
	var got []int
	sim.DriveUntil(t, env, -1,
		sim.Driver{Name: "server", Fn: func(p *sim.Proc) {
			s := hB.Accept(p)
			for i := 0; i < 20; i++ {
				m := s.Recv(p)
				got = append(got, m.Payload.(int))
			}
		}},
		sim.Driver{Name: "client", Fn: func(p *sim.Proc) {
			s := hA.Dial(hB)
			for i := 0; i < 20; i++ {
				s.Send(p, 100, i)
			}
		}})
	if len(got) != 20 {
		t.Fatalf("received %d messages", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("stream reordered: %v", got)
		}
	}
}

func TestDeviceStats(t *testing.T) {
	r := newRig()
	mr := r.pdB.RegisterMRSetup(4096)
	r.qpB.PostRecv(RecvWR{})
	r.qpB.PostRecv(RecvWR{})
	sim.Drive(t, r.env, "client", func(p *sim.Proc) {
		r.qpA.PostSend(p, SendWR{Op: OpSend, Size: 64})
		r.qpA.PostSend(p, SendWR{Op: OpWriteImm, Size: 64, RemoteMR: mr.LKey()})
		r.qpA.PostSend(p, SendWR{Op: OpRead, RemoteMR: mr.LKey()})
	})
	if r.devA.SendsPosted != 1 || r.devA.WritesPosted != 1 || r.devA.ReadsPosted != 1 {
		t.Errorf("stats sends=%d writes=%d reads=%d, want 1/1/1",
			r.devA.SendsPosted, r.devA.WritesPosted, r.devA.ReadsPosted)
	}
}
