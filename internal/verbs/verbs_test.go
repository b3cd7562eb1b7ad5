package verbs

import (
	"testing"

	"hybridkv/internal/sim"
	"hybridkv/internal/simnet"
)

// rig builds two connected RC QPs on an FDR fabric.
type rig struct {
	env          *sim.Env
	fabric       *simnet.Fabric
	devA, devB   *Device
	pdA, pdB     *PD
	qpA, qpB     *QP
	sendA, recvA *CQ
	sendB, recvB *CQ
}

func newRig() *rig {
	env := sim.NewEnv()
	f := simnet.New(env, simnet.FDRInfiniBand())
	r := &rig{env: env, fabric: f}
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
	r.qpB.PostRecv(RecvWR{WRID: 9})
	var got Completion
	r.env.Spawn("server", func(p *sim.Proc) {
		got = r.recvB.WaitPoll(p)
	})
	r.env.Spawn("client", func(p *sim.Proc) {
		r.qpA.PostSend(p, SendWR{WRID: 1, Op: OpSend, Size: 128, Payload: "req"})
	})
	r.env.Run()
	if got.WRID != 9 || got.Op != OpRecv || got.Bytes != 128 || got.Payload != "req" {
		t.Errorf("recv completion %+v", got)
	}
}

func TestSendWithoutRecvPanics(t *testing.T) {
	r := newRig()
	r.env.Spawn("client", func(p *sim.Proc) {
		r.qpA.PostSend(p, SendWR{WRID: 1, Op: OpSend, Size: 64})
	})
	defer func() {
		if recover() == nil {
			t.Errorf("RNR condition did not panic")
		}
	}()
	r.env.Run()
}

func TestSignaledSendCompletionAfterAck(t *testing.T) {
	r := newRig()
	r.qpB.PostRecv(RecvWR{})
	var compAt sim.Time
	r.env.Spawn("client", func(p *sim.Proc) {
		r.qpA.PostSend(p, SendWR{WRID: 7, Op: OpSend, Size: 4096, Signaled: true})
		c := r.sendA.WaitPoll(p)
		if c.WRID != 7 || c.Op != OpSend {
			t.Errorf("send completion %+v", c)
		}
		compAt = p.Now()
	})
	r.env.Run()
	spec := r.fabric.Spec()
	min := spec.SerializeTime(4096) + 2*spec.PropDelay
	if compAt < min {
		t.Errorf("send completion at %v, before ack can arrive (%v)", compAt, min)
	}
}

func TestRDMAWriteDepositsIntoMR(t *testing.T) {
	r := newRig()
	mr := r.pdB.RegisterMRSetup(64 * 1024)
	r.env.Spawn("client", func(p *sim.Proc) {
		r.qpA.PostSend(p, SendWR{
			WRID: 3, Op: OpWrite, Size: 32 * 1024,
			Payload: "value-bytes", RemoteMR: mr.LKey(),
		})
	})
	r.env.Run()
	v, n := mr.Payload()
	if v != "value-bytes" || n != 32*1024 {
		t.Errorf("MR contents (%v,%d), want (value-bytes,32768)", v, n)
	}
	if _, ok := r.recvB.Poll(); ok {
		t.Errorf("plain WRITE generated a remote completion")
	}
}

func TestRDMAWriteImmConsumesRecv(t *testing.T) {
	r := newRig()
	mr := r.pdB.RegisterMRSetup(4096)
	r.qpB.PostRecv(RecvWR{WRID: 20})
	var got Completion
	r.env.Spawn("server", func(p *sim.Proc) { got = r.recvB.WaitPoll(p) })
	r.env.Spawn("client", func(p *sim.Proc) {
		r.qpA.PostSend(p, SendWR{
			Op: OpWriteImm, Size: 512, Payload: "x",
			RemoteMR: mr.LKey(), Imm: 0xbeef,
		})
	})
	r.env.Run()
	if got.WRID != 20 || got.Op != OpWriteImm || got.Imm != 0xbeef {
		t.Errorf("WRITE_IMM completion %+v", got)
	}
	if v, _ := mr.Payload(); v != "x" {
		t.Errorf("WRITE_IMM did not deposit payload")
	}
	if r.qpB.RecvDepth() != 0 {
		t.Errorf("WRITE_IMM did not consume the RECV")
	}
}

func TestRDMAReadFetchesRemoteMR(t *testing.T) {
	r := newRig()
	remote := r.pdB.RegisterMRSetup(1 << 20)
	remote.SetPayload("remote-data", 100*1024)
	local := r.pdA.RegisterMRSetup(1 << 20)
	var comp Completion
	var doneAt sim.Time
	r.env.Spawn("client", func(p *sim.Proc) {
		r.qpA.PostSend(p, SendWR{
			WRID: 11, Op: OpRead, RemoteMR: remote.LKey(),
			LocalMR: local, Signaled: true,
		})
		comp = r.sendA.WaitPoll(p)
		doneAt = p.Now()
	})
	r.env.Run()
	if comp.WRID != 11 || comp.Op != OpRead || comp.Bytes != 100*1024 {
		t.Errorf("READ completion %+v", comp)
	}
	if v, n := local.Payload(); v != "remote-data" || n != 100*1024 {
		t.Errorf("local MR after READ: (%v,%d)", v, n)
	}
	spec := r.fabric.Spec()
	min := 2*spec.PropDelay + spec.SerializeTime(100*1024)
	if doneAt < min {
		t.Errorf("READ completed at %v, faster than a round trip + data (%v)", doneAt, min)
	}
}

func TestInlineSendBufferReusableImmediately(t *testing.T) {
	r := newRig()
	r.qpB.PostRecv(RecvWR{})
	var reusableAt sim.Time = -1
	r.env.Spawn("client", func(p *sim.Proc) {
		ev := r.qpA.PostSendReusable(p, SendWR{Op: OpSend, Size: 128, Inline: true})
		p.Wait(ev)
		reusableAt = p.Now()
	})
	r.env.Run()
	if reusableAt != doorbellCost {
		t.Errorf("inline buffer reusable at %v, want doorbell cost %v", reusableAt, doorbellCost)
	}
}

func TestNonInlineReusableAfterSerialization(t *testing.T) {
	r := newRig()
	r.qpB.PostRecv(RecvWR{})
	size := 1 << 20
	var reusableAt sim.Time
	r.env.Spawn("client", func(p *sim.Proc) {
		ev := r.qpA.PostSendReusable(p, SendWR{Op: OpSend, Size: size})
		p.Wait(ev)
		reusableAt = p.Now()
	})
	r.env.Run()
	min := r.fabric.Spec().SerializeTime(size)
	if reusableAt < min {
		t.Errorf("1MB buffer reusable at %v, before DMA completes (%v)", reusableAt, min)
	}
}

func TestOversizeInlinePanics(t *testing.T) {
	r := newRig()
	defer func() {
		if recover() == nil {
			t.Errorf("oversize inline send did not panic")
		}
	}()
	r.env.Spawn("client", func(p *sim.Proc) {
		r.qpA.PostSend(p, SendWR{Op: OpSend, Size: MaxInline + 1, Inline: true})
	})
	r.env.Run()
}

func TestQPOrderingPreserved(t *testing.T) {
	r := newRig()
	for i := 0; i < 10; i++ {
		r.qpB.PostRecv(RecvWR{WRID: uint64(i)})
	}
	var got []uint64
	r.env.Spawn("server", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			c := r.recvB.WaitPoll(p)
			got = append(got, c.Payload.(uint64))
		}
	})
	r.env.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			r.qpA.PostSend(p, SendWR{Op: OpSend, Size: 64, Payload: uint64(i)})
		}
	})
	r.env.Run()
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
	env.Spawn("server", func(p *sim.Proc) {
		s, ok := hB.Accept(p)
		if !ok {
			return
		}
		m, _ := s.Recv(p)
		s.Send(p, m.Size, "pong:"+m.Payload.(string))
	})
	env.Spawn("client", func(p *sim.Proc) {
		s := hA.Dial(hB)
		t0 := p.Now()
		s.Send(p, 1024, "ping")
		reply, _ = s.Recv(p)
		rtt = p.Now() - t0
	})
	env.Run()
	if reply.Payload != "pong:ping" {
		t.Errorf("reply %+v", reply)
	}
	// Kernel-stack round trip must exceed 2× the IPoIB per-side costs.
	spec := simnet.IPoIB()
	min := 2 * (spec.SendCPU + spec.SegCPU + spec.PropDelay + spec.RecvCPU)
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
	env.Spawn("server", func(p *sim.Proc) {
		s, _ := hB.Accept(p)
		for i := 0; i < 20; i++ {
			m, _ := s.Recv(p)
			got = append(got, m.Payload.(int))
		}
	})
	env.Spawn("client", func(p *sim.Proc) {
		s := hA.Dial(hB)
		for i := 0; i < 20; i++ {
			s.Send(p, 100, i)
		}
	})
	env.Run()
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
	r.env.Spawn("client", func(p *sim.Proc) {
		r.qpA.PostSend(p, SendWR{Op: OpSend, Size: 64})
		r.qpA.PostSend(p, SendWR{Op: OpWrite, Size: 64, RemoteMR: mr.LKey()})
		r.qpA.PostSend(p, SendWR{Op: OpRead, RemoteMR: mr.LKey()})
	})
	r.env.Run()
	if r.devA.SendsPosted != 1 || r.devA.WritesPosted != 1 || r.devA.ReadsPosted != 1 {
		t.Errorf("stats sends=%d writes=%d reads=%d, want 1/1/1",
			r.devA.SendsPosted, r.devA.WritesPosted, r.devA.ReadsPosted)
	}
}
