package core

import (
	"hybridkv/internal/metrics"
	"testing"

	"hybridkv/internal/protocol"
	"hybridkv/internal/server"
	"hybridkv/internal/sim"
	"hybridkv/internal/store"
)

// A hedge that fires while the bypass resolver is still bootstrapping gives
// the request a second attempt on another connection. The resolver used to
// ask the request which connection it was on at every step, and went on to
// probe the hedge target's directory — never bootstrapped, nil — out of
// Env.Run. It resolves on the connection it started on.
func TestHedgeMidBootstrapLeavesTheResolverItsConnection(t *testing.T) {
	r := newTestRig(rigOpts{
		transport: RDMA, pipeline: server.Async, servers: 2,
		clientCfg: func(c *Config) { c.Bypass = true },
	})
	for _, srv := range r.servers {
		srv.AttachBypassDirectory(store.NewDirectory(srv.Device().AllocPD(), 0))
	}
	c := r.client
	var req *Req
	sim.Drive(t, r.env, "bench", func(p *sim.Proc) {
		c.Set(p, "h", 512, "v", 0, 0)
		var err error
		req, err = c.Issue(p, Op{Code: protocol.OpGet, Key: "h"}, WithHedge(sim.Microsecond))
		if err != nil {
			t.Errorf("issue: %v", err)
			return
		}
		c.Wait(p, req)
	})
	if req == nil || !req.Done() {
		t.Fatal("the GET never completed")
	}
	if n := c.Counters.Val(metrics.CHedges); n != 1 {
		t.Errorf("hedges = %d: the hedge never fired mid-bootstrap, the test proves nothing", n)
	}
	if n := c.Counters.Val(metrics.CBypassBootstraps); n != 1 {
		t.Errorf("bypass-bootstraps = %d, want the resolver's one", n)
	}
}

// drained reports, once a run has drained, everything a finished request's
// attempts may have left behind on the client's connections.
func drained(t *testing.T, c *Client) {
	t.Helper()
	for _, cn := range c.conns {
		if cn.credits != nil && cn.credits.InUse() != 0 {
			t.Errorf("server%d: %d credits still in use", cn.serverID, cn.credits.InUse())
		}
		if len(cn.pending)+len(cn.pendingBatch)+len(cn.readWaits)+len(cn.window) != 0 {
			t.Errorf("server%d: %d pending entries, %d frame records, %d READ waits, %d parked attempts left behind",
				cn.serverID, len(cn.pending), len(cn.pendingBatch), len(cn.readWaits), len(cn.window))
		}
		if b := cn.brk; b != nil && b.state == bkHalfOpen && b.probing {
			t.Errorf("server%d: the breaker's probe slot is taken and no attempt is out to give it back", cn.serverID)
		}
	}
	v := c.Counters.Val
	if issued, completed, timeouts, cancels := v(metrics.CIssued), v(metrics.CCompleted), v(metrics.CTimeouts), v(metrics.CCancels); issued != completed+timeouts+cancels {
		t.Errorf("issued %d != completed %d + timeouts %d + cancels %d", issued, completed, timeouts, cancels)
	}
}

// attemptsReturned checks that req, ended, points into no attempt, and that
// every attempt of c is free or kept: settled, its request forgotten, held by
// its unanswered message alone.
func attemptsReturned(t *testing.T, c *Client, req *Req) {
	t.Helper()
	if req.cur != nil {
		t.Errorf("the ended request still points into its attempts")
	}
	for _, att := range c.kept {
		if att.state != attSettled || att.req != nil || att.next != nil {
			t.Errorf("a kept attempt is in state %d, or points into its request's ring", att.state)
		}
	}
	for _, tally := range c.Census() {
		if tally.List != "attempts" {
			continue
		}
		if n := tally.Made - tally.Free - tally.Walked; n != 0 || tally.Wrong != nil {
			t.Errorf("attempts: %d neither free nor kept (%d made, %d free, %d kept) %v",
				n, tally.Made, tally.Free, tally.Walked, tally.Wrong)
		}
	}
}

// A hedge is added beside the attempt it hedges over, and the request used to
// remember only the later of the two: with the home server silent, the
// earlier one kept its credit for good however the request ended — by the
// hedge's answer, by the deadline, by a cancel. The request settles every
// attempt it made.
func TestHedgedOverAttemptIsSettledWithItsRequest(t *testing.T) {
	for _, end := range []string{"the hedge's answer", "the deadline", "a cancel"} {
		t.Run(end, func(t *testing.T) {
			r := newTestRig(rigOpts{transport: RDMA, pipeline: server.Async, servers: 2})
			c := r.client
			sim.Drive(t, r.env, "bench", func(p *sim.Proc) {
				home := c.route("h", routeGet, nil)
				r.servers[home.serverID].Crash()
				if end == "the deadline" {
					r.servers[1-home.serverID].Crash()
				}
				for i := 0; i < 10; i++ {
					req, err := c.Issue(p, Op{Code: protocol.OpGet, Key: "h"},
						WithDeadline(500*sim.Microsecond), WithHedge(20*sim.Microsecond))
					if err != nil {
						t.Errorf("issue: %v", err)
						return
					}
					if end == "a cancel" {
						p.Sleep(21 * sim.Microsecond)
						c.Cancel(req)
					}
					c.Wait(p, req)
				}
			})
			if n := c.Counters.Val(metrics.CHedges); n != 10 {
				t.Fatalf("hedges = %d of 10 GETs: the test proves nothing", n)
			}
			drained(t, c)
		})
	}
}

// An attempt given up on after it was sent used to leave its pending entry
// behind as a tombstone for the late response to collect — and against a
// server that never answers, nothing ever did: one entry per timed-out
// attempt, for the life of the client. settle takes the entry with everything
// else; a response that does come late finds none and counts as stale.
func TestTimedOutAttemptsLeaveNoPendingEntry(t *testing.T) {
	r := newTestRig(rigOpts{transport: RDMA, pipeline: server.Async})
	c := r.client
	sim.Drive(t, r.env, "bench", func(p *sim.Proc) {
		r.servers[0].Crash()
		for i := 0; i < 10; i++ {
			req, err := c.Issue(p, Op{Code: protocol.OpGet, Key: "h"},
				WithRetry(RetryPolicy{MaxAttempts: 3, AttemptTimeout: 50 * sim.Microsecond, Jitter: -1}))
			if err != nil {
				t.Errorf("issue: %v", err)
				return
			}
			c.Wait(p, req)
		}
	})
	if n := c.Counters.Val(metrics.CRetries); n != 20 {
		t.Fatalf("retries = %d, want 10 GETs x 2: the test proves nothing", n)
	}
	drained(t, c)
}

// A half-open breaker admits one probe and refuses everything else until the
// probe reports. A probe that was canceled, or hedged over and then outrun by
// the hedge, used to report nothing — no attempt timeout, no response anyone
// was still listening for — and the recovered server was refused for the rest
// of the run. An attempt that ends with no verdict hands the slot back, and
// the next request probes.
func TestProbeThatEndsWithoutAVerdictHandsItsSlotBack(t *testing.T) {
	for _, end := range []string{"canceled", "outrun by its hedge"} {
		t.Run(end, func(t *testing.T) {
			r := newTestRig(rigOpts{
				transport: RDMA, pipeline: server.Async, servers: 2,
				clientCfg: func(cc *Config) { cc.Breaker = 2 },
			})
			c := r.client
			home := c.route("k", routeGet, nil)
			reached := 0
			sim.Drive(t, r.env, "bench", func(p *sim.Proc) {
				srv := r.servers[home.serverID]
				srv.Crash()
				for i := 0; i < 2; i++ { // two timeouts open the breaker
					req, _ := c.Issue(p, Op{Code: protocol.OpGet, Key: "k"}, WithDeadline(100*sim.Microsecond))
					c.Wait(p, req)
				}
				srv.Restart()
				p.Sleep(breakerCooldown + 100*sim.Microsecond) // the next request is the probe
				var probe *Req
				var on *conn // where the probe's first attempt went
				if end == "canceled" {
					probe, _ = c.Issue(p, Op{Code: protocol.OpGet, Key: "k"})
					on = probe.cn
					c.Cancel(probe)
				} else {
					// The recovered server limps for a while: the hedge's miss
					// comes first, the probe's answer late.
					srv.AddWorkerStall(p.Now(), p.Now()+200*sim.Microsecond, 100*sim.Microsecond)
					probe, _ = c.Issue(p, Op{Code: protocol.OpGet, Key: "k"}, WithHedge(10*sim.Microsecond))
					on = probe.cn
					c.Wait(p, probe)
				}
				if on != home || c.Counters.Val(metrics.CBreakerHalfOpen) != 1 {
					t.Error("the request was not the half-open probe: the test proves nothing")
				}
				p.Sleep(5 * sim.Millisecond)
				for i := 0; i < 100; i++ {
					req, _ := c.Issue(p, Op{Code: protocol.OpGet, Key: "k"})
					c.Wait(p, req)
					if req.cn == home {
						reached++
					}
				}
			})
			if reached != 100 {
				t.Errorf("%d of 100 later GETs reached the recovered server", reached)
			}
			if n := c.Counters.Val(metrics.CBreakerClose); n != 1 {
				t.Errorf("breaker-close = %d, want 1", n)
			}
			drained(t, c)
		})
	}
}

// A buffered socket Set was routed like any attempt — so a half-open breaker
// gave it its one probe slot — but was no request: nothing ever settled for
// it, and the slot stayed taken, the breaker half-open and refusing, until
// some request failed through to it. It is a request now, made in beginOn:
// its attempt ends with it, without a verdict, and hands the slot on.
func TestBufferedSetGivesBackTheProbeSlot(t *testing.T) {
	r := newTestRig(rigOpts{transport: IPoIB, servers: 2, clientCfg: func(c *Config) { c.Breaker = 2 }})
	c := r.client
	c.SetBuffering(true)
	sim.Drive(t, r.env, "app", func(p *sim.Proc) {
		home := c.route("k", routeWrite, nil)
		home.noteFailure()
		home.noteFailure()
		p.Sleep(breakerCooldown + sim.Microsecond) // the next attempt routed here takes the probe slot
		if st := c.Set(p, "k", 512, "v", 0, 0); st != protocol.StatusStored || home.brk.state != bkHalfOpen {
			t.Fatalf("buffered set: %v, breaker state %d: the Set was not the probe, the test proves nothing", st, home.brk.state)
		}
		c.FlushBuffers(p)
		if !home.routable() {
			t.Error("after the flush the breaker still refuses: the buffered Set kept the probe slot")
		}
		// The next request is the probe: it goes home, hits, and closes the breaker.
		if v, _, st := c.Get(p, "k"); st != protocol.StatusOK || v != "v" || home.brk.state != bkClosed {
			t.Errorf("get after the flush: (%v, %v), breaker state %d; want the value, from home, and the breaker closed", v, st, home.brk.state)
		}
	})
	if n := c.Counters.Val(metrics.CBreakerReroutes); n != 0 {
		t.Errorf("breaker-reroutes = %d: a request was sent around a server that had answered", n)
	}
	drained(t, c)
}
