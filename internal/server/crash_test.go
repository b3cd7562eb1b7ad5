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

// TestCrashDiscardsAndWarmRestartServes drives both pipelines through a
// crash/restart cycle: requests during the outage vanish without a
// response, and the store survives the warm restart.
func TestCrashDiscardsAndWarmRestartServes(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"sync", Config{Pipeline: Sync}},
		{"async", Config{Pipeline: Async}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, tc.cfg, 64<<20, false)
			var resp *protocol.Response
			r.env.Spawn("client", func(p *sim.Proc) {
				r.sendReq(p, &protocol.Request{Op: protocol.OpSet, ReqID: 1, Key: "k", ValueSize: 1024, Value: "v"})
				if got := r.awaitResp(p); got.Status != protocol.StatusStored {
					t.Errorf("pre-crash set status %v", got.Status)
				}
				r.srv.Crash()
				if !r.srv.Down() {
					t.Error("Down() = false after Crash")
				}
				r.sendReq(p, &protocol.Request{Op: protocol.OpGet, ReqID: 2, Key: "k"})
				p.Sleep(500 * sim.Microsecond)
				r.srv.Restart()
				if r.srv.Down() {
					t.Error("Down() = true after Restart")
				}
				r.sendReq(p, &protocol.Request{Op: protocol.OpGet, ReqID: 3, Key: "k"})
				resp = r.awaitResp(p)
			})
			r.env.Run()
			if resp == nil {
				t.Fatal("no response after restart")
			}
			// The first response after the outage must answer the
			// post-restart request — the down-window get got nothing.
			if resp.ReqID != 3 {
				t.Fatalf("post-restart response answers ReqID %d, want 3", resp.ReqID)
			}
			if resp.Status != protocol.StatusOK || resp.Value != "v" {
				t.Errorf("store did not survive warm restart: %+v", resp)
			}
			if r.srv.Discarded != 1 {
				t.Errorf("Discarded = %d, want 1", r.srv.Discarded)
			}
		})
	}
}

func TestScheduleCrashWindow(t *testing.T) {
	r := newRig(t, Config{Pipeline: Sync}, 64<<20, false)
	const from, to = 100 * sim.Microsecond, 300 * sim.Microsecond
	r.srv.ScheduleCrash(from, to)
	var resp *protocol.Response
	r.env.Spawn("client", func(p *sim.Proc) {
		r.sendReq(p, &protocol.Request{Op: protocol.OpSet, ReqID: 1, Key: "k", ValueSize: 512, Value: "v"})
		if got := r.awaitResp(p); got.Status != protocol.StatusStored {
			t.Errorf("pre-window set status %v", got.Status)
		}
		p.Sleep(200*sim.Microsecond - p.Now())
		if !r.srv.Down() {
			t.Error("server not down inside the scheduled window")
		}
		r.sendReq(p, &protocol.Request{Op: protocol.OpGet, ReqID: 2, Key: "k"})
		p.Sleep(400*sim.Microsecond - p.Now())
		if r.srv.Down() {
			t.Error("server still down after the scheduled restart")
		}
		r.sendReq(p, &protocol.Request{Op: protocol.OpGet, ReqID: 3, Key: "k"})
		resp = r.awaitResp(p)
	})
	r.env.Run()
	if resp == nil || resp.ReqID != 3 || resp.Status != protocol.StatusOK {
		t.Fatalf("post-window response %+v, want ReqID 3 OK", resp)
	}
	if r.srv.Discarded != 1 {
		t.Errorf("Discarded = %d, want 1", r.srv.Discarded)
	}
}

func TestScheduleCrashRejectsEmptyWindow(t *testing.T) {
	r := newRig(t, Config{Pipeline: Sync}, 64<<20, false)
	defer func() {
		if recover() == nil {
			t.Error("ScheduleCrash(to <= from) did not panic")
		}
	}()
	r.srv.ScheduleCrash(50, 50)
}

// newDirectRig is newRig with a direct-I/O hybrid store (H-RDMA-Def
// geometry), whose synchronous evictions hold the dispatcher for hundreds
// of microseconds — the window the mid-eviction crash test needs.
func newDirectRig(t *testing.T, memLimit int64) *rig {
	t.Helper()
	env := sim.NewEnv()
	fab := simnet.New(env, simnet.FDRInfiniBand())
	snode := fab.AddNode("server")
	cnode := fab.AddNode("client")
	dev := blockdev.New(env, blockdev.SATA(), 8<<30)
	file := pagecache.New(env, dev, pagecache.DefaultParams()).OpenFile(0, 4<<30)
	mgr := hybridslab.New(env, hybridslab.Config{
		Slab:   slab.Config{MemLimit: memLimit},
		Policy: hybridslab.PolicyDirect,
	}, file)
	srv := NewRDMA(env, snode, store.New(env, mgr), Config{Pipeline: Sync})
	srv.Start()
	cdev := verbs.OpenDevice(cnode)
	pd := cdev.AllocPD()
	sendCQ, recvCQ := cdev.CreateCQ(0), cdev.CreateCQ(0)
	qp := cdev.CreateQP(sendCQ, recvCQ)
	srv.AcceptQP(qp)
	for i := 0; i < 4*srv.RecvDepth(); i++ {
		qp.PostRecv(verbs.RecvWR{})
	}
	return &rig{env: env, srv: srv, qp: qp, sendCQ: sendCQ, recvCQ: recvCQ,
		respMR: pd.RegisterMRSetup(2 << 20), dev: dev}
}

// A sync server crashing in the middle of an eviction's storage phase must
// discard the finished work and keep going — the client sees a lost
// response (an error via its deadline), never a wedged server.
func TestSyncCrashMidEvictionErrorsNotHangs(t *testing.T) {
	r := newDirectRig(t, 1<<20) // 1 MB of slab: 32 KB sets evict almost at once
	const fill = 40
	var after *protocol.Response
	r.env.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < fill; i++ {
			r.sendReq(p, &protocol.Request{
				Op: protocol.OpSet, ReqID: uint64(i + 1),
				Key: fmt.Sprintf("k%02d", i), ValueSize: 32 << 10, Value: i,
			})
			if got := r.awaitResp(p); got.Status != protocol.StatusStored {
				t.Errorf("fill set %d status %v", i, got.Status)
			}
		}
		r.sendReq(p, &protocol.Request{
			Op: protocol.OpSet, ReqID: 100,
			Key: "victim", ValueSize: 32 << 10, Value: "v",
		})
		p.Sleep(50 * sim.Millisecond) // outlives the victim's storage phase
		r.srv.Restart()
		r.sendReq(p, &protocol.Request{Op: protocol.OpGet, ReqID: 101, Key: "k39"})
		after = r.awaitResp(p)
	})
	// Crash the instant the dispatcher starts the victim's storage phase.
	r.env.Spawn("saboteur", func(p *sim.Proc) {
		for r.srv.Requests < fill+1 {
			p.Sleep(sim.Microsecond)
		}
		r.srv.Crash()
	})
	r.env.Run() // a wedged dispatcher would leave the post-restart get unanswered
	if after == nil {
		t.Fatal("server never answered after the mid-eviction crash")
	}
	if after.ReqID != 101 {
		t.Fatalf("first post-restart response answers ReqID %d, want 101 "+
			"(the victim's response must be lost with the crash)", after.ReqID)
	}
	if after.Status != protocol.StatusOK {
		t.Errorf("post-restart get status %v", after.Status)
	}
	if r.srv.Discarded != 1 {
		t.Errorf("Discarded = %d, want 1 (the mid-eviction victim)", r.srv.Discarded)
	}
}
