package core

import (
	"errors"
	"fmt"
	"hybridkv/internal/metrics"
	"testing"

	"hybridkv/internal/hybridslab"
	"hybridkv/internal/protocol"
	"hybridkv/internal/server"
	"hybridkv/internal/sim"
)

// TestWaitAnyWithConcurrentCancel: Cancel fires the request's completion
// event, so a WaitAny parked on the batch must wake immediately with the
// canceled index — not deadlock waiting for a response that will never come.
func TestWaitAnyWithConcurrentCancel(t *testing.T) {
	r := newTestRig(rigOpts{transport: RDMA, pipeline: server.Async})
	c := r.client
	srv := r.servers[0]
	var reqs []*Req
	var woke int
	sim.Drive(t, r.env, "bench", func(p *sim.Proc) {
		srv.Crash() // nothing will ever answer
		for i := 0; i < 3; i++ {
			req, err := c.Issue(p, Op{Code: protocol.OpGet, Key: fmt.Sprintf("k%d", i)})
			if err != nil {
				t.Errorf("issue: %v", err)
				return
			}
			reqs = append(reqs, req)
		}
		r.env.Spawn("canceler", func(q *sim.Proc) {
			q.Sleep(10 * sim.Microsecond)
			c.Cancel(reqs[1])
		})
		woke = c.WaitAny(p, reqs)
		for _, req := range reqs {
			c.Cancel(req) // cleanup so the sim drains
		}
	})

	if woke != 1 {
		t.Errorf("WaitAny woke on index %d, want 1 (the canceled request)", woke)
	}
	if !errors.Is(reqs[1].Err(), ErrCanceled) {
		t.Errorf("canceled request err = %v, want ErrCanceled", reqs[1].Err())
	}
	if n := c.Counters.Val(metrics.CCancels); n != 3 {
		t.Errorf("cancels counter = %d, want 3", n)
	}
}

// TestBudgetExhaustionSurfacesBusy: a guarded SET whose every attempt is
// shed with StatusBusy must fail with ErrBusy — the last attempt's sentinel
// — not the generic deadline error, so the caller learns the server was
// saturated rather than unreachable.
func TestBudgetExhaustionSurfacesBusy(t *testing.T) {
	r := newTestRig(rigOpts{
		transport: RDMA, pipeline: server.Async,
		serverCfg: func(sc *server.Config) {
			sc.BufferBytes = 4096
			sc.Overload = true
		},
	})
	c := r.client
	var req *Req
	sim.Drive(t, r.env, "bench", func(p *sim.Proc) {
		var err error
		// 8 KB value against a 4 KB buffer with a 0.5 SET watermark:
		// every attempt is over the limit and shed.
		req, err = c.Issue(p, Op{Code: protocol.OpSet, Key: "big", ValueSize: 8192, Value: "v"},
			WithRetry(RetryPolicy{
				MaxAttempts: 3, AttemptTimeout: 100 * sim.Microsecond,
				Backoff: 10 * sim.Microsecond, Jitter: -1,
			}))
		if err != nil {
			t.Errorf("issue: %v", err)
			return
		}
		c.Wait(p, req)
	})

	if req == nil {
		t.Fatal("request never issued")
	}
	if !errors.Is(req.Err(), ErrBusy) {
		t.Errorf("err = %v, want ErrBusy", req.Err())
	}
	if req.Attempts != 3 {
		t.Errorf("attempts = %d, want 3", req.Attempts)
	}
	if n := c.Counters.Val(metrics.CBusy); n != 3 {
		t.Errorf("busy counter = %d, want 3", n)
	}
	if r.servers[0].ShedSets != 3 {
		t.Errorf("server ShedSets = %d, want 3", r.servers[0].ShedSets)
	}
}

// TestBudgetExhaustionSurfacesRecovering: the same exhaustion against a
// server mid-recovery surfaces ErrRecovering; pure silence (a crashed
// server) still surfaces ErrDeadlineExceeded. The three exhaustion flavors
// are distinguishable.
func TestBudgetExhaustionSurfacesRecovering(t *testing.T) {
	r := newTestRig(rigOpts{
		transport: RDMA, pipeline: server.Async,
		hybrid: true, memLimit: 1 << 20, policy: hybridslab.PolicyDirect,
	})
	c := r.client
	srv := r.servers[0]
	var recovering, silent *Req
	rp := RetryPolicy{
		MaxAttempts: 2, AttemptTimeout: 50 * sim.Microsecond,
		Backoff: 5 * sim.Microsecond, Jitter: -1,
	}
	sim.Drive(t, r.env, "bench", func(p *sim.Proc) {
		for i := 0; i < 40; i++ { // overcommit so the recovery scan has work
			c.Set(p, fmt.Sprintf("k%02d", i), 32<<10, i, 0, 0)
		}
		srv.Crash()
		p.Sleep(50 * sim.Microsecond)

		// Crashed and silent: deadline sentinel.
		var err error
		silent, err = c.Issue(p, Op{Code: protocol.OpGet, Key: "k00"}, WithRetry(rp))
		if err != nil {
			t.Errorf("issue: %v", err)
			return
		}
		c.Wait(p, silent)

		// Recovering and rejecting: the rejection sentinel.
		srv.RestartCold()
		recovering, err = c.Issue(p, Op{Code: protocol.OpGet, Key: "k00"}, WithRetry(rp))
		if err != nil {
			t.Errorf("issue: %v", err)
			return
		}
		c.Wait(p, recovering)
	})

	if silent == nil || recovering == nil {
		t.Fatal("requests never issued")
	}
	if !errors.Is(silent.Err(), ErrDeadlineExceeded) {
		t.Errorf("silent exhaustion err = %v, want ErrDeadlineExceeded", silent.Err())
	}
	if !errors.Is(recovering.Err(), ErrRecovering) {
		t.Errorf("recovering exhaustion err = %v, want ErrRecovering", recovering.Err())
	}
}

// TestDeadlineDuringOpenBreaker: consecutive timeouts trip the per-server
// breaker; with every connection open the client still issues (degraded, to
// the home server) and the deadline expires cleanly. After restart and
// cooldown a half-open probe closes the breaker again.
func TestDeadlineDuringOpenBreaker(t *testing.T) {
	r := newTestRig(rigOpts{
		transport: RDMA, pipeline: server.Async,
		clientCfg: func(cc *Config) { cc.Breaker = 2 },
	})
	c := r.client
	srv := r.servers[0]
	var during *Req
	var probe protocol.Status
	sim.Drive(t, r.env, "bench", func(p *sim.Proc) {
		if st := c.Set(p, "k", 4096, "v", 0, 0); st != protocol.StatusStored {
			t.Errorf("seed set status %v", st)
		}
		srv.Crash()
		for i := 0; i < 2; i++ { // trip the breaker: two consecutive timeouts
			req, err := c.Issue(p, Op{Code: protocol.OpGet, Key: "k"},
				WithDeadline(100*sim.Microsecond))
			if err != nil {
				t.Errorf("issue: %v", err)
				return
			}
			c.Wait(p, req)
		}
		if n := c.Counters.Val(metrics.CBreakerOpen); n != 1 {
			t.Errorf("breaker-open = %d after two timeouts, want 1", n)
		}

		// Breaker open, server still down: a new deadline-guarded request
		// expires cleanly instead of wedging.
		var err error
		during, err = c.Issue(p, Op{Code: protocol.OpGet, Key: "k"},
			WithDeadline(100*sim.Microsecond))
		if err != nil {
			t.Errorf("issue: %v", err)
			return
		}
		c.Wait(p, during)

		// Recovery: restart, wait out the cooldown, and let the half-open
		// probe re-close the breaker.
		srv.Restart()
		p.Sleep(breakerCooldown + 100*sim.Microsecond)
		_, _, probe = c.Get(p, "k")
	})

	if during == nil {
		t.Fatal("request never issued")
	}
	if !errors.Is(during.Err(), ErrDeadlineExceeded) {
		t.Errorf("open-breaker deadline err = %v, want ErrDeadlineExceeded", during.Err())
	}
	if probe != protocol.StatusOK {
		t.Errorf("post-recovery get status = %v, want OK", probe)
	}
	if n := c.Counters.Val(metrics.CBreakerHalfOpen); n == 0 {
		t.Error("no half-open probe recorded")
	}
	if n := c.Counters.Val(metrics.CBreakerClose); n == 0 {
		t.Error("breaker never closed after recovery")
	}
}

// TestBreakerReroutesAroundOpenServer: with a second replica available, an
// open breaker steers new requests to the next ring server instead of the
// saturated one.
func TestBreakerReroutesAroundOpenServer(t *testing.T) {
	r := newTestRig(rigOpts{
		transport: RDMA, pipeline: server.Async, servers: 2,
		clientCfg: func(cc *Config) { cc.Breaker = 2 },
	})
	c := r.client
	var rerouted *Req
	sim.Drive(t, r.env, "bench", func(p *sim.Proc) {
		probe, err := c.Issue(p, Op{Code: protocol.OpGet, Key: "k"})
		if err != nil {
			t.Errorf("issue: %v", err)
			return
		}
		c.Wait(p, probe)
		home := r.servers[probe.cn.serverID]
		home.Crash()
		for i := 0; i < 2; i++ {
			req, _ := c.Issue(p, Op{Code: protocol.OpGet, Key: "k"},
				WithDeadline(100*sim.Microsecond))
			c.Wait(p, req)
		}
		rerouted, err = c.Issue(p, Op{Code: protocol.OpGet, Key: "k"},
			WithDeadline(500*sim.Microsecond))
		if err != nil {
			t.Errorf("issue: %v", err)
			return
		}
		c.Wait(p, rerouted)
	})

	if rerouted == nil {
		t.Fatal("request never issued")
	}
	// The live replica answers (a miss: the key was never stored there —
	// cache semantics beat wedging on the saturated home).
	if !errors.Is(rerouted.Err(), ErrNotFound) {
		t.Errorf("rerouted err = %v, want ErrNotFound from the live replica", rerouted.Err())
	}
	if n := c.Counters.Val(metrics.CBreakerReroutes); n == 0 {
		t.Error("no reroute recorded")
	}
}

// TestHedgedGetBeatsDeadServer: a hedged GET mirrors to the next ring
// server when the home replica stays silent, and the first answer — even a
// miss — completes the request well before the deadline.
func TestHedgedGetBeatsDeadServer(t *testing.T) {
	r := newTestRig(rigOpts{transport: RDMA, pipeline: server.Async, servers: 2})
	c := r.client
	var req *Req
	var took sim.Time
	sim.Drive(t, r.env, "bench", func(p *sim.Proc) {
		probe, err := c.Issue(p, Op{Code: protocol.OpGet, Key: "h"})
		if err != nil {
			t.Errorf("issue: %v", err)
			return
		}
		c.Wait(p, probe)
		r.servers[probe.cn.serverID].Crash()

		t0 := p.Now()
		req, err = c.Issue(p, Op{Code: protocol.OpGet, Key: "h"},
			WithDeadline(2*sim.Millisecond), WithHedge(20*sim.Microsecond))
		if err != nil {
			t.Errorf("issue: %v", err)
			return
		}
		c.Wait(p, req)
		took = p.Now() - t0
	})

	if req == nil {
		t.Fatal("request never issued")
	}
	if !errors.Is(req.Err(), ErrNotFound) {
		t.Errorf("hedged get err = %v, want ErrNotFound (the live server's miss)", req.Err())
	}
	if took >= 2*sim.Millisecond {
		t.Errorf("hedged get took the full deadline (%v); hedge never fired", took)
	}
	if n := c.Counters.Val(metrics.CHedges); n != 1 {
		t.Errorf("hedges counter = %d, want 1", n)
	}
}

// TestHedgedGetSingleServerNoPanic: on a single-connection client there is
// no distinct replica to hedge onto, so the hedge timer must degrade to a
// no-op — no panic in failoverNext, no hedges counted — and the request
// simply runs to its deadline.
func TestHedgedGetSingleServerNoPanic(t *testing.T) {
	r := newTestRig(rigOpts{transport: RDMA, pipeline: server.Async})
	c := r.client
	var req *Req
	sim.Drive(t, r.env, "bench", func(p *sim.Proc) {
		r.servers[0].Crash() // silence the only server so the hedge timer fires
		var err error
		req, err = c.Issue(p, Op{Code: protocol.OpGet, Key: "solo"},
			WithDeadline(500*sim.Microsecond), WithHedge(20*sim.Microsecond))
		if err != nil {
			t.Errorf("issue: %v", err)
			return
		}
		c.Wait(p, req)
	})

	if req == nil {
		t.Fatal("request never issued")
	}
	if !errors.Is(req.Err(), ErrDeadlineExceeded) {
		t.Errorf("err = %v, want ErrDeadlineExceeded (nowhere to hedge)", req.Err())
	}
	if n := c.Counters.Val(metrics.CHedges); n != 0 {
		t.Errorf("hedges counter = %d, want 0 on a single-server client", n)
	}
}

// TestServerAdmissionClassesAndAckedDrain: with the buffer past the SET
// watermark but under the GET watermark, new SETs shed while GETs are still
// admitted — and every SET the server acked before the squeeze completes.
func TestServerAdmissionClassesAndAckedDrain(t *testing.T) {
	r := newTestRig(rigOpts{
		transport: RDMA, pipeline: server.Async,
		hybrid: true, memLimit: 1 << 20, policy: hybridslab.PolicyDirect,
		serverCfg: func(sc *server.Config) {
			sc.BufferBytes = 128 << 10
			sc.StorageWorkers = 1
			sc.Overload = true
		},
	})
	c := r.client
	srv := r.servers[0]
	var sets []*Req
	var getReq *Req
	sim.Drive(t, r.env, "bench", func(p *sim.Proc) {
		// Overcommit memory so the early keys live on the SSD.
		for i := 0; i < 40; i++ {
			if st := c.Set(p, fmt.Sprintf("k%02d", i), 32<<10, i, 0, 0); st != protocol.StatusStored {
				t.Errorf("fill set %d status %v", i, st)
			}
		}
		// Occupy the single storage worker: a salvo of direct-I/O GETs for
		// SSD-resident keys. Their wire footprint is tiny (admission cost
		// ~60 bytes each) but each costs an SSD read, so the request queue
		// backs up behind them.
		var stalls []*Req
		for i := 0; i < 8; i++ {
			req, err := c.Issue(p, Op{Code: protocol.OpGet, Key: fmt.Sprintf("k%02d", i)})
			if err != nil {
				t.Errorf("issue: %v", err)
				return
			}
			stalls = append(stalls, req)
		}
		// Now 12 × 32 KB acked SETs back to back. They buffer behind the
		// stalled worker, so the first two cross the 64 KB SET watermark
		// and the rest shed with StatusBusy.
		for i := 0; i < 12; i++ {
			req, err := c.Issue(p, Op{
				Code: protocol.OpSet, Key: fmt.Sprintf("s%02d", i),
				ValueSize: 32 << 10, Value: i,
			}, WithBufferAck())
			if err != nil {
				t.Errorf("issue: %v", err)
				return
			}
			sets = append(sets, req)
		}
		// A GET in the middle of the squeeze: small, under the 0.9 GET
		// watermark, admitted.
		var err error
		getReq, err = c.Issue(p, Op{Code: protocol.OpGet, Key: "k00"})
		if err != nil {
			t.Errorf("issue: %v", err)
			return
		}
		c.WaitAll(p, append(append(stalls, sets...), getReq))
	})

	if srv.ShedSets == 0 {
		t.Fatal("no SETs shed")
	}
	if srv.ShedGets != 0 {
		t.Errorf("ShedGets = %d, want 0 (GETs stay under their watermark)", srv.ShedGets)
	}
	var admitted int
	for i, req := range sets {
		switch err := req.Err(); {
		case err == nil:
			admitted++
			if !req.Acked() {
				t.Errorf("admitted set %d completed without its BufferAck", i)
			}
		case errors.Is(err, ErrBusy):
			// shed: the only other legal outcome
		default:
			t.Errorf("set %d err = %v, want nil or ErrBusy", i, err)
		}
	}
	if admitted == 0 {
		t.Fatal("every SET was shed: watermark admits nothing")
	}
	if int64(admitted)+srv.ShedSets < int64(len(sets)) {
		t.Errorf("admitted %d + shed %d < %d issued: sets vanished",
			admitted, srv.ShedSets, len(sets))
	}
	if getReq == nil || getReq.Err() != nil {
		t.Errorf("mid-squeeze GET failed: %v", getReq.Err())
	}
}

// TestHedgedGetRacesConcurrentCancel: on a replica-aware client, a hedged
// GET whose home replica is dead races a concurrent Cancel two ways. A
// cancel before the hedge threshold must stand the hedger down entirely; a
// cancel after the hedge fired but before the mirrored answer lands must
// win the completion race, with the late response absorbed as stale — no
// deadlock, no double completion, and the sim drains cleanly.
func TestHedgedGetRacesConcurrentCancel(t *testing.T) {
	r := newTestRig(rigOpts{
		transport: RDMA, pipeline: server.Async, servers: 2, replicas: 2,
	})
	c := r.client
	var early, late *Req
	sim.Drive(t, r.env, "bench", func(p *sim.Proc) {
		probe, err := c.Issue(p, Op{Code: protocol.OpGet, Key: "hr"})
		if err != nil {
			t.Errorf("issue: %v", err)
			return
		}
		c.Wait(p, probe)
		r.servers[probe.cn.serverID].Crash()

		// Race 1: cancel well before the hedge threshold.
		early, err = c.Issue(p, Op{Code: protocol.OpGet, Key: "hr"},
			WithDeadline(2*sim.Millisecond), WithHedge(50*sim.Microsecond))
		if err != nil {
			t.Errorf("issue: %v", err)
			return
		}
		r.env.Spawn("cancel-early", func(q *sim.Proc) {
			q.Sleep(10 * sim.Microsecond)
			c.Cancel(early)
		})
		c.Wait(p, early)
		if n := c.Counters.Val(metrics.CHedges); n != 0 {
			t.Errorf("hedger fired despite the pre-threshold cancel (hedges = %d)", n)
		}

		// Race 2: cancel just after the hedge fires, before the live
		// replica's answer can land.
		late, err = c.Issue(p, Op{Code: protocol.OpGet, Key: "hr"},
			WithDeadline(2*sim.Millisecond), WithHedge(20*sim.Microsecond))
		if err != nil {
			t.Errorf("issue: %v", err)
			return
		}
		r.env.Spawn("cancel-late", func(q *sim.Proc) {
			q.Sleep(21 * sim.Microsecond)
			c.Cancel(late)
		})
		c.Wait(p, late)
	})

	if early == nil || late == nil {
		t.Fatal("requests never issued")
	}
	if !errors.Is(early.Err(), ErrCanceled) {
		t.Errorf("pre-threshold cancel err = %v, want ErrCanceled", early.Err())
	}
	if !errors.Is(late.Err(), ErrCanceled) {
		t.Errorf("post-hedge cancel err = %v, want ErrCanceled", late.Err())
	}
	if n := c.Counters.Val(metrics.CHedges); n != 1 {
		t.Errorf("hedges counter = %d, want exactly the post-threshold one", n)
	}
	if n := c.Counters.Val(metrics.CCancels); n != 2 {
		t.Errorf("cancels counter = %d, want 2", n)
	}
}

// TestWaitAnyAcrossReplicas: WaitAny parked over GETs in flight to distinct
// replicas wakes on whichever server answers first — here the only live
// one — while the request to the crashed replica stays pending until it is
// explicitly canceled.
func TestWaitAnyAcrossReplicas(t *testing.T) {
	r := newTestRig(rigOpts{
		transport: RDMA, pipeline: server.Async, servers: 2, replicas: 2,
	})
	c := r.client

	// Two keys homed on different primaries, so the two GETs go to
	// distinct replicas of the two-server set.
	var keyA, keyB string
	for i := 0; i < 64 && (keyA == "" || keyB == ""); i++ {
		k := fmt.Sprintf("wa:%02d", i)
		if c.ring.Pick(k) == 0 && keyA == "" {
			keyA = k
		}
		if c.ring.Pick(k) == 1 && keyB == "" {
			keyB = k
		}
	}
	if keyA == "" || keyB == "" {
		t.Fatal("could not find keys on both primaries")
	}

	var reqs []*Req
	woke := -1
	sim.Drive(t, r.env, "bench", func(p *sim.Proc) {
		r.servers[0].Crash()
		ra, err := c.Issue(p, Op{Code: protocol.OpGet, Key: keyA})
		if err != nil {
			t.Errorf("issue: %v", err)
			return
		}
		rb, err := c.Issue(p, Op{Code: protocol.OpGet, Key: keyB})
		if err != nil {
			t.Errorf("issue: %v", err)
			return
		}
		reqs = []*Req{ra, rb}
		woke = c.WaitAny(p, reqs)
		c.Cancel(ra) // the dead replica will never answer; drain the sim
	})

	if woke != 1 {
		t.Fatalf("WaitAny woke on index %d, want 1 (the live replica's answer)", woke)
	}
	if reqs[0].cn.serverID == reqs[1].cn.serverID {
		t.Error("both GETs routed to the same server; the test never spanned replicas")
	}
	if !errors.Is(reqs[1].Err(), ErrNotFound) {
		t.Errorf("live replica err = %v, want ErrNotFound (clean miss)", reqs[1].Err())
	}
	if !errors.Is(reqs[0].Err(), ErrCanceled) {
		t.Errorf("dead replica err = %v, want ErrCanceled after cleanup", reqs[0].Err())
	}
}
