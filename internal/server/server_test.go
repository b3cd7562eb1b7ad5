package server

import (
	"fmt"
	"testing"

	"hybridkv/internal/blockdev"
	"hybridkv/internal/hybridslab"
	"hybridkv/internal/pagecache"
	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
	"hybridkv/internal/simnet"
	"hybridkv/internal/slab"
	"hybridkv/internal/store"
	"hybridkv/internal/verbs"
)

// rig wires a raw verbs client directly to a server (no client runtime),
// so the tests observe the server's wire behaviour precisely.
type rig struct {
	env    *sim.Env
	srv    *Server
	qp     *verbs.QP // client side
	sendCQ *verbs.CQ
	recvCQ *verbs.CQ
	respMR *verbs.MR
	dev    *blockdev.Device // the direct rig's SSD (newDirectRig)
}

func newRig(t *testing.T, cfg Config, memLimit int64, hybrid bool) *rig {
	t.Helper()
	env := sim.NewEnv()
	fab := simnet.New(env, simnet.FDRInfiniBand())
	snode := fab.AddNode("server")
	cnode := fab.AddNode("client")

	var file *pagecache.File
	if hybrid {
		dev := blockdev.New(env, blockdev.SATA(), 8<<30)
		file = pagecache.New(env, dev, pagecache.DefaultParams()).OpenFile(0, 4<<30)
	}
	mgr := hybridslab.New(env, hybridslab.Config{
		Slab:   slab.Config{MemLimit: memLimit},
		Policy: hybridslab.PolicyAdaptive,
	}, file)
	st := store.New(env, mgr)
	srv := NewRDMA(env, snode, st, cfg)
	srv.Start()

	cdev := verbs.OpenDevice(cnode)
	pd := cdev.AllocPD()
	sendCQ, recvCQ := cdev.CreateCQ(0), cdev.CreateCQ(0)
	qp := cdev.CreateQP(sendCQ, recvCQ)
	srv.AcceptQP(qp)
	for i := 0; i < 4*srv.RecvDepth(); i++ {
		qp.PostRecv(verbs.RecvWR{})
	}
	return &rig{
		env: env, srv: srv, qp: qp,
		sendCQ: sendCQ, recvCQ: recvCQ,
		respMR: pd.RegisterMRSetup(2 << 20),
	}
}

// sendReq posts one request over the raw QP.
func (r *rig) sendReq(p *sim.Proc, req *protocol.Request) {
	req.RespMR = r.respMR.LKey()
	r.qp.PostSend(p, verbs.SendWR{
		Op: verbs.OpSend, Size: req.WireSize(), Payload: req,
	})
}

// awaitResp blocks until the next server message arrives.
func (r *rig) awaitResp(p *sim.Proc) *protocol.Response {
	c := r.recvCQ.WaitPoll(p)
	return c.Payload.(*protocol.Response)
}

func TestSyncServerRoundTrip(t *testing.T) {
	r := newRig(t, Config{Pipeline: Sync}, 64<<20, false)
	var setResp, getResp *protocol.Response
	r.env.Spawn("client", func(p *sim.Proc) {
		r.sendReq(p, &protocol.Request{Op: protocol.OpSet, ReqID: 1, Key: "k", ValueSize: 1024, Value: "v"})
		setResp = r.awaitResp(p)
		r.sendReq(p, &protocol.Request{Op: protocol.OpGet, ReqID: 2, Key: "k"})
		getResp = r.awaitResp(p)
	})
	r.env.Run()
	if setResp.Status != protocol.StatusStored || setResp.ReqID != 1 {
		t.Errorf("set response %+v", setResp)
	}
	if getResp.Status != protocol.StatusOK || getResp.Value != "v" || getResp.ValueSize != 1024 {
		t.Errorf("get response %+v", getResp)
	}
	if r.srv.Requests != 2 {
		t.Errorf("server handled %d requests", r.srv.Requests)
	}
	// Sync servers never ack.
	if r.srv.Acks != 0 {
		t.Errorf("sync server sent %d acks", r.srv.Acks)
	}
}

func TestSyncServerIgnoresAckWanted(t *testing.T) {
	r := newRig(t, Config{Pipeline: Sync}, 64<<20, false)
	var first *protocol.Response
	r.env.Spawn("client", func(p *sim.Proc) {
		r.sendReq(p, &protocol.Request{Op: protocol.OpSet, ReqID: 1, Key: "k", ValueSize: 64, Value: "v", AckWanted: true})
		first = r.awaitResp(p)
	})
	r.env.Run()
	if first.Op != protocol.OpResponse {
		t.Errorf("sync server sent %v before the response", first.Op)
	}
}

func TestAsyncServerAcksBeforeResponse(t *testing.T) {
	r := newRig(t, Config{Pipeline: Async}, 64<<20, false)
	var msgs []*protocol.Response
	var ackAt, respAt sim.Time
	r.env.Spawn("client", func(p *sim.Proc) {
		r.sendReq(p, &protocol.Request{Op: protocol.OpSet, ReqID: 7, Key: "k", ValueSize: 32 * 1024, Value: "v", AckWanted: true})
		m1 := r.awaitResp(p)
		ackAt = p.Now()
		m2 := r.awaitResp(p)
		respAt = p.Now()
		msgs = append(msgs, m1, m2)
	})
	r.env.Run()
	if msgs[0].Op != protocol.OpBufferAck || msgs[0].ReqID != 7 {
		t.Fatalf("first message %+v, want BufferAck", msgs[0])
	}
	if msgs[1].Op != protocol.OpResponse || msgs[1].Status != protocol.StatusStored {
		t.Fatalf("second message %+v, want stored response", msgs[1])
	}
	if ackAt >= respAt {
		t.Errorf("ack at %v not before response at %v", ackAt, respAt)
	}
	if r.srv.Acks != 1 {
		t.Errorf("acks=%d", r.srv.Acks)
	}
}

func TestAsyncPipelinesStorage(t *testing.T) {
	// With W storage workers, N requests with storage time T complete in
	// ≈ N·T/W rather than N·T. Use hybrid sets that trigger eviction I/O.
	run := func(pipeline Pipeline) sim.Time {
		r := newRig(t, Config{Pipeline: pipeline, StorageWorkers: 4}, 2<<20, true)
		const n = 100
		r.env.Spawn("client", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				r.sendReq(p, &protocol.Request{
					Op: protocol.OpSet, ReqID: uint64(i + 1),
					Key: fmt.Sprintf("k%03d", i), ValueSize: 32 * 1024, Value: i,
				})
			}
			for i := 0; i < n; i++ {
				r.awaitResp(p)
			}
		})
		return r.env.Run()
	}
	sync, async := run(Sync), run(Async)
	if float64(sync)/float64(async) < 1.5 {
		t.Errorf("async (%v) not ≥1.5x faster than sync (%v) on eviction-heavy sets", async, sync)
	}
}

func TestAsyncBufferBytesBackpressure(t *testing.T) {
	// A tiny buffer admits only one 32KB set at a time: the dispatcher
	// must stall and stop re-posting receives until storage drains.
	r := newRig(t, Config{Pipeline: Async, BufferBytes: 40 << 10, StorageWorkers: 1}, 2<<20, true)
	const n = 12
	done := 0
	r.env.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			r.sendReq(p, &protocol.Request{
				Op: protocol.OpSet, ReqID: uint64(i + 1),
				Key: fmt.Sprintf("k%03d", i), ValueSize: 32 * 1024, Value: i,
			})
		}
		for i := 0; i < n; i++ {
			r.awaitResp(p)
			done++
		}
	})
	r.env.Run()
	if done != n {
		t.Fatalf("only %d of %d responses under backpressure (deadlock?)", done, n)
	}
}

func TestGetOfANeverStoredKeyMisses(t *testing.T) {
	r := newRig(t, Config{Pipeline: Async}, 64<<20, false)
	var miss *protocol.Response
	r.env.Spawn("client", func(p *sim.Proc) {
		r.sendReq(p, &protocol.Request{Op: protocol.OpSet, ReqID: 1, Key: "k", ValueSize: 64, Value: "v"})
		r.awaitResp(p)
		r.sendReq(p, &protocol.Request{Op: protocol.OpGet, ReqID: 2, Key: "never"})
		miss = r.awaitResp(p)
	})
	r.env.Run()
	if miss.Status != protocol.StatusNotFound {
		t.Errorf("get of a never-stored key: status %v", miss.Status)
	}
}

func TestIPoIBServerRoundTrip(t *testing.T) {
	env := sim.NewEnv()
	fab := simnet.New(env, simnet.IPoIB())
	snode := fab.AddNode("server")
	cnode := fab.AddNode("client")
	mgr := hybridslab.New(env, hybridslab.Config{Slab: slab.Config{MemLimit: 64 << 20}}, nil)
	srv := NewIPoIB(env, snode, store.New(env, mgr), Config{})
	srv.Start()
	host := verbs.NewHost(cnode)
	var resp *protocol.Response
	env.Spawn("client", func(p *sim.Proc) {
		stream := host.Dial(srv.Host())
		req := &protocol.Request{Op: protocol.OpSet, ReqID: 1, Key: "k", ValueSize: 128, Value: "v"}
		stream.Send(p, req.WireSize(), req)
		resp = stream.Recv(p).Payload.(*protocol.Response)
	})
	env.Run()
	if resp.Status != protocol.StatusStored {
		t.Errorf("IPoIB set response %+v", resp)
	}
	if srv.Requests != 1 {
		t.Errorf("requests=%d", srv.Requests)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}
	c.fill()
	if c.StorageWorkers != 4 || c.BufferBytes != 2<<20 {
		t.Errorf("defaults %+v", c)
	}
	if Sync.String() != "sync" || Async.String() != "async" {
		t.Errorf("pipeline strings")
	}
}

func TestDoubleStartPanics(t *testing.T) {
	r := newRig(t, Config{}, 64<<20, false)
	defer func() {
		if recover() == nil {
			t.Errorf("double Start did not panic")
		}
	}()
	r.srv.Start()
}
