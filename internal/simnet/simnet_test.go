package simnet

import (
	"testing"

	"hybridkv/internal/sim"
)

func rdmaPair(t *testing.T) (*sim.Env, *Fabric, *Node, *Node) {
	t.Helper()
	env := sim.NewEnv()
	f := New(env, FDRInfiniBand())
	return env, f, f.AddNode("a"), f.AddNode("b")
}

func TestSmallMessageLatency(t *testing.T) {
	env, f, a, b := rdmaPair(t)
	var deliveredAt sim.Time = -1
	b.SetReceiver(func(m *Message) { deliveredAt = env.Now() })
	env.Spawn("sender", func(p *sim.Proc) {
		a.Send(p, "b", 64, "hdr")
	})
	env.Run()
	spec := f.Spec()
	want := spec.SendCPU + spec.SerializeTime(64) + spec.PropDelay + spec.RecvCPU
	if deliveredAt != want {
		t.Errorf("64B delivery at %v, want %v", deliveredAt, want)
	}
	if deliveredAt <= 0 || deliveredAt > 2*sim.Microsecond {
		t.Errorf("FDR small-message latency %v outside (0,2µs]", deliveredAt)
	}
}

func TestBandwidthDominatesLargeTransfers(t *testing.T) {
	env, _, a, b := rdmaPair(t)
	var deliveredAt sim.Time
	b.SetReceiver(func(m *Message) { deliveredAt = env.Now() })
	size := 32 << 20 // 32 MB
	env.Spawn("sender", func(p *sim.Proc) { a.Send(p, "b", size, nil) })
	env.Run()
	// 32 MB at 6 GB/s ≈ 5.59 ms; latency terms are negligible.
	lo, hi := 5*sim.Millisecond, 7*sim.Millisecond
	if deliveredAt < lo || deliveredAt > hi {
		t.Errorf("32MB delivery at %v, want within [%v,%v]", deliveredAt, lo, hi)
	}
}

func TestIPoIBSlowerThanRDMA(t *testing.T) {
	measure := func(spec LinkSpec, size int) sim.Time {
		env := sim.NewEnv()
		f := New(env, spec)
		a, b := f.AddNode("a"), f.AddNode("b")
		var at sim.Time
		b.SetReceiver(func(m *Message) { at = env.Now() })
		env.Spawn("s", func(p *sim.Proc) { a.Send(p, "b", size, nil) })
		env.Run()
		return at
	}
	for _, size := range []int{64, 4096, 32 * 1024, 512 * 1024} {
		rdma := measure(FDRInfiniBand(), size)
		ipoib := measure(IPoIB(), size)
		ratio := float64(ipoib) / float64(rdma)
		if ratio < 2 {
			t.Errorf("size %d: IPoIB/RDMA latency ratio %.2f, want ≥ 2", size, ratio)
		}
	}
}

func TestLinkSerializationIsSequential(t *testing.T) {
	env, f, a, b := rdmaPair(t)
	var deliveries []sim.Time
	b.SetReceiver(func(m *Message) { deliveries = append(deliveries, env.Now()) })
	size := 6 << 20 // 6 MB ≈ 1 ms serialization each
	env.Spawn("sender", func(p *sim.Proc) {
		a.Post("b", size, 1)
		a.Post("b", size, 2)
	})
	env.Run()
	if len(deliveries) != 2 {
		t.Fatalf("delivered %d messages, want 2", len(deliveries))
	}
	gap := deliveries[1] - deliveries[0]
	want := f.Spec().SerializeTime(size)
	if gap != want {
		t.Errorf("back-to-back delivery gap %v, want one serialization time %v", gap, want)
	}
}

func TestSentFiresBeforeDelivered(t *testing.T) {
	env, f, a, _ := rdmaPair(t)
	var sentAt, delivAt sim.Time
	env.Spawn("sender", func(p *sim.Proc) {
		out := a.Post("b", 4096, nil)
		p.Wait(out.Sent)
		sentAt = p.Now()
		p.Wait(out.Delivered)
		delivAt = p.Now()
	})
	env.Run()
	if sentAt <= 0 || delivAt <= sentAt {
		t.Errorf("sent=%v delivered=%v, want 0 < sent < delivered", sentAt, delivAt)
	}
	if d := delivAt - sentAt; d != f.Spec().PropDelay+f.Spec().RecvCPU {
		t.Errorf("delivered-sent = %v, want prop+recv = %v", d, f.Spec().PropDelay+f.Spec().RecvCPU)
	}
}

func TestIndependentLinksDoNotContend(t *testing.T) {
	env := sim.NewEnv()
	f := New(env, FDRInfiniBand())
	a, b := f.AddNode("a"), f.AddNode("b")
	c := f.AddNode("c")
	var times []sim.Time
	c.SetReceiver(func(m *Message) { times = append(times, env.Now()) })
	size := 6 << 20
	env.Spawn("s1", func(p *sim.Proc) { a.Post("c", size, nil) })
	env.Spawn("s2", func(p *sim.Proc) { b.Post("c", size, nil) })
	env.Run()
	if len(times) != 2 {
		t.Fatalf("delivered %d, want 2", len(times))
	}
	// Full bisection: both senders serialize in parallel; deliveries land
	// at (almost) the same instant rather than back to back.
	if gap := times[1] - times[0]; gap > 10*sim.Microsecond {
		t.Errorf("independent senders gap %v, want ≈0 (parallel links)", gap)
	}
}

func TestBidirectionalFullDuplex(t *testing.T) {
	env, _, a, b := rdmaPair(t)
	var got []string
	a.SetReceiver(func(m *Message) { got = append(got, "a<-"+m.Src) })
	b.SetReceiver(func(m *Message) { got = append(got, "b<-"+m.Src) })
	size := 6 << 20
	var aDone, bDone sim.Time
	env.Spawn("sa", func(p *sim.Proc) {
		out := a.Post("b", size, nil)
		p.Wait(out.Delivered)
		aDone = p.Now()
	})
	env.Spawn("sb", func(p *sim.Proc) {
		out := b.Post("a", size, nil)
		p.Wait(out.Delivered)
		bDone = p.Now()
	})
	env.Run()
	if len(got) != 2 {
		t.Fatalf("deliveries %v", got)
	}
	if d := aDone - bDone; d > 10*sim.Microsecond || d < -10*sim.Microsecond {
		t.Errorf("duplex transfers finished %v apart, want ≈0", d)
	}
}

func TestStatsAccumulate(t *testing.T) {
	env, f, a, b := rdmaPair(t)
	b.SetReceiver(func(m *Message) {})
	env.Spawn("s", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			out := a.Send(p, "b", 1000, nil)
			p.Wait(out.Delivered)
		}
	})
	env.Run()
	if f.MsgCount != 4 || f.ByteCount != 4000 {
		t.Errorf("fabric stats %d msgs/%d bytes, want 4/4000", f.MsgCount, f.ByteCount)
	}
	if a.TxMsgs != 4 || b.RxMsgs != 4 || a.TxBytes != 4000 || b.RxBytes != 4000 {
		t.Errorf("node stats tx=%d/%d rx=%d/%d", a.TxMsgs, a.TxBytes, b.RxMsgs, b.RxBytes)
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("duplicate AddNode did not panic")
		}
	}()
	env := sim.NewEnv()
	f := New(env, FDRInfiniBand())
	f.AddNode("x")
	f.AddNode("x")
}

func TestSendCostSegmentation(t *testing.T) {
	spec := IPoIB()
	oneSeg := spec.SendCost(1000)
	threeSegs := spec.SendCost(3*64*1024 - 1)
	if oneSeg != spec.SendCPU+spec.SegCPU {
		t.Errorf("1-segment cost %v, want %v", oneSeg, spec.SendCPU+spec.SegCPU)
	}
	if threeSegs != spec.SendCPU+3*spec.SegCPU {
		t.Errorf("3-segment cost %v, want %v", threeSegs, spec.SendCPU+3*spec.SegCPU)
	}
	if FDRInfiniBand().SendCost(1<<20) != FDRInfiniBand().SendCPU {
		t.Errorf("RDMA SendCost should be size-independent")
	}
}
