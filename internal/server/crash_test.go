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
			sim.Drive(t, r.env, "client", func(p *sim.Proc) {
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

// TestOutage takes a direct-I/O hybrid server (40 items of 32 KB over 1 MB of
// slab, so most are on the SSD) down once per OutageKind and checks the
// contract a fault schedule times its next step from: the server is dark for
// exactly down, a request sent meanwhile is discarded, a warm crash keeps the
// store, a cold restart recovers the SSD's items (none after KillAll), and
// Outage returns at once after a warm restart, at the first 100 µs poll that
// finds the recovery scan done after a cold one.
func TestOutage(t *testing.T) {
	const fill, down, poll = 40, 500 * sim.Microsecond, 100 * sim.Microsecond
	for _, tc := range []struct {
		name string
		how  OutageKind
	}{{"warm-crash", WarmCrash}, {"cold-crash", ColdCrash}, {"kill-ram", KillRAM}, {"kill-all", KillAll}} {
		t.Run(tc.name, func(t *testing.T) {
			r := newDirectRig(t, 1<<20)
			var from, back sim.Time
			var onSSD int
			var after *protocol.Response
			sim.Drive(t, r.env, "outage", func(p *sim.Proc) {
				for i := 0; i < fill; i++ {
					r.sendReq(p, &protocol.Request{
						Op: protocol.OpSet, ReqID: uint64(i + 1),
						Key: fmt.Sprintf("k%02d", i), ValueSize: 32 << 10, Value: i,
					})
					if got := r.awaitResp(p); got.Status != protocol.StatusStored {
						t.Errorf("fill set %d status %v", i, got.Status)
					}
				}
				onSSD = r.srv.Store().Manager().SSDItems()
				from = p.Now()
				r.env.Spawn("probe", func(q *sim.Proc) {
					q.Sleep(down / 2)
					r.sendReq(q, &protocol.Request{Op: protocol.OpGet, ReqID: 100, Key: "k39"})
					q.Sleep(from + down - 1 - q.Now())
					if !r.srv.Down() {
						t.Errorf("up at %v, before the outage's down ended", q.Now()-from)
					}
					q.Sleep(1)
					if r.srv.Down() {
						t.Errorf("still down at %v, when the outage's down ended", q.Now()-from)
					}
				})
				r.srv.Outage(p, tc.how, down)
				back = p.Now()
				r.sendReq(p, &protocol.Request{Op: protocol.OpGet, ReqID: 101, Key: "k39"})
				after = r.awaitResp(p)
			})

			if r.srv.Discarded != 1 {
				t.Errorf("Discarded = %d, want 1 (the request sent while down)", r.srv.Discarded)
			}
			if after.ReqID != 101 {
				t.Fatalf("first response after the outage %+v, want ReqID 101", after)
			}
			if tc.how == WarmCrash {
				if after.Status != protocol.StatusOK || after.Value != 39 {
					t.Errorf("store did not survive the warm crash: %+v", after)
				}
				if back != from+down || r.srv.Recoveries != 0 {
					t.Errorf("returned %v after the crash with %d recoveries, want %v and none", back-from, r.srv.Recoveries, down)
				}
				return
			}
			want := int64(onSSD)
			if tc.how == KillAll {
				want = 0
			}
			if got := r.srv.LastRecovery.ItemsRecovered; got != want || onSSD == 0 {
				t.Errorf("recovered %d items with %d on the SSD, want %d", got, onSSD, want)
			}
			scanEnd := from + down + r.srv.RecoveryTime
			if polled := back - from - down; polled <= 0 || polled%poll != 0 || back < scanEnd || back-poll >= max(scanEnd, from+down+1) {
				t.Errorf("returned %v after the restart, the scan ended %v after it: want the first %v poll at or after it",
					back-from-down, r.srv.RecoveryTime, poll)
			}
		})
	}
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
	// A wedged dispatcher would leave the post-restart get unanswered.
	sim.DriveUntil(t, r.env, -1, sim.Driver{Name: "client", Fn: func(p *sim.Proc) {
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
	}}, sim.Driver{Name: "saboteur", Fn: func(p *sim.Proc) {
		// Crash the instant the dispatcher starts the victim's storage phase.
		for r.srv.Requests < fill+1 {
			p.Sleep(sim.Microsecond)
		}
		r.srv.Crash()
	}})
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
