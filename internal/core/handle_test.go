package core

import (
	"errors"
	"testing"

	"hybridkv/internal/metrics"
	"hybridkv/internal/protocol"
	"hybridkv/internal/server"
	"hybridkv/internal/sim"
)

// panics reports whether fn panicked.
func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}

// TestHandleInFlightAndEnded drives every call of the handle API on requests
// in flight and on requests that have ended. A request keeps no event of its
// own: while it is in flight a wait parks on its first attempt, and once it
// has ended every wait returns at once, without moving the clock. Done, Test
// and Err read the answer either way; Release refuses a request in flight
// and a second release. A WaitAny that another request woke leaves its
// wakeup on the first attempt of the one still in flight, which gives it
// back when it ends: the census finds every record free.
func TestHandleInFlightAndEnded(t *testing.T) {
	r := newTestRig(rigOpts{transport: RDMA, pipeline: server.Async})
	c := r.client
	sim.Drive(t, r.env, "caller", func(p *sim.Proc) {
		c.Set(p, "k", 64, "v", 0, 0)

		get, _ := c.Issue(p, Op{Code: protocol.OpGet, Key: "k"})
		if get.Done() || c.Test(get) || !errors.Is(get.Err(), ErrInFlight) {
			t.Errorf("GET in flight: done %v, test %v, err %v", get.Done(), c.Test(get), get.Err())
		}
		if !panics(func() { c.Release(get) }) {
			t.Error("Release of a request in flight did not panic")
		}
		t0 := p.Now()
		c.Wait(p, get)
		if !get.Done() || !c.Test(get) || get.Err() != nil || get.Value != "v" || p.Now() == t0 {
			t.Errorf("GET after Wait: done %v, test %v, err %v, value %v, waited %v",
				get.Done(), c.Test(get), get.Err(), get.Value, p.Now()-t0)
		}

		miss, _ := c.Issue(p, Op{Code: protocol.OpGet, Key: "nope"})
		t1 := p.Now()
		c.Wait(p, get)
		if !c.WaitTimeout(p, get, sim.Microsecond) {
			t.Error("WaitTimeout on an ended request timed out")
		}
		if err := c.WaitAll(p, []*Req{get}); err != nil {
			t.Errorf("WaitAll on an ended request: %v", err)
		}
		if i := c.WaitAny(p, []*Req{miss, get}); i != 1 {
			t.Errorf("WaitAny over one in flight and one ended woke on %d, want 1", i)
		}
		if p.Now() != t1 || miss.Done() {
			t.Errorf("waits on an ended request took %v; the miss ended meanwhile: %v", p.Now()-t1, miss.Done())
		}
		if i := c.WaitAny(p, []*Req{miss}); i != 0 || !errors.Is(miss.Err(), ErrNotFound) {
			t.Errorf("WaitAny over the miss woke on %d with %v", i, miss.Err())
		}
		if err := c.WaitAll(p, []*Req{get, miss}); !errors.Is(err, ErrNotFound) {
			t.Errorf("WaitAll over a hit and a miss: %v, want the miss's ErrNotFound", err)
		}

		// Two in flight, the later one answered first: the WaitAny's wakeup
		// on the earlier one stays until that one times out.
		r.fabric.SetFaults(&filterInjector{pick: func(n int) bool { return n == 1 }})
		lost, _ := c.Issue(p, Op{Code: protocol.OpGet, Key: "k"}, WithDeadline(100*sim.Microsecond))
		hit, _ := c.Issue(p, Op{Code: protocol.OpGet, Key: "k"})
		if i := c.WaitAny(p, []*Req{lost, hit}); i != 1 || lost.Done() || hit.Value != "v" {
			t.Errorf("WaitAny over a lost GET and a hit woke on %d (lost done %v, hit %v)", i, lost.Done(), hit.Value)
		}
		if ok := c.WaitTimeout(p, lost, sim.Millisecond); !ok || !lost.TimedOut() || !errors.Is(lost.Err(), ErrDeadlineExceeded) {
			t.Errorf("the lost GET: waited %v, timed out %v, err %v", ok, lost.TimedOut(), lost.Err())
		}

		canceled, _ := c.Issue(p, Op{Code: protocol.OpGet, Key: "k"})
		c.Cancel(canceled)
		c.Cancel(canceled)
		if !canceled.Done() || !canceled.Canceled() || !errors.Is(canceled.Err(), ErrCanceled) {
			t.Errorf("canceled GET: done %v, canceled %v, err %v", canceled.Done(), canceled.Canceled(), canceled.Err())
		}

		for _, req := range []*Req{get, miss, lost, hit, canceled} {
			c.Release(req)
		}
		if !panics(func() { c.Release(get) }) {
			t.Error("a second Release did not panic")
		}
		p.Sleep(sim.Millisecond) // the lost GET's attempt is kept by its message; nothing else is held
	})
	if err := r.census().Err(); err != nil {
		t.Error(err)
	}
}

// TestGuardCountsARetransmitItsRequestOutran cancels a guarded GET as its
// guard retransmits: the guard's wait for the first attempt ran out and it
// backed off. Cancelled while the retransmit is prepared, the guard has
// already given the attempt up, chosen the next connection and counted the
// retry and the failover. Cancelled at the instant the backoff runs out, by a
// caller whose wakeup was queued before the guard's, the request has ended
// when the guard resumes on its backoff's timeout, and the guard still counts
// both decisions. Either way those decisions stand, and nothing more is sent.
func TestGuardCountsARetransmitItsRequestOutran(t *testing.T) {
	const timeout, backoff = 40 * sim.Microsecond, 5 * sim.Microsecond
	for _, tc := range []struct {
		name string
		// at is when the caller cancels, after the request was issued;
		// retries is what the guard has counted by then.
		at      sim.Time
		retries int64
	}{
		{"while the retransmit is prepared", timeout + backoff + prepCost/2, 1},
		{"as the backoff runs out", timeout + backoff, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newTestRig(rigOpts{transport: RDMA, pipeline: server.Async, servers: 2})
			c := r.client
			r.fabric.SetFaults(dropAllRequests())
			sim.Drive(t, r.env, "caller", func(p *sim.Proc) {
				req, _ := c.Issue(p, Op{Code: protocol.OpGet, Key: "k"}, WithRetry(RetryPolicy{
					MaxAttempts: 3, AttemptTimeout: timeout, Backoff: backoff, Jitter: -1, Failover: true,
				}))
				// The guard starts as Issue returns, at IssuedAt, after this
				// caller parks: its first wait runs out a timeout later, its
				// backoff after that, and the retransmit then takes prepCost
				// to prepare.
				p.WaitUntil(req.IssuedAt + tc.at)
				if c.Counters.Val(metrics.CRetries) != tc.retries || req.Done() {
					t.Fatalf("at the cancel: %d retries counted, done %v; want %d, not done",
						c.Counters.Val(metrics.CRetries), req.Done(), tc.retries)
				}
				c.Cancel(req)
				p.Sleep(sim.Millisecond)
				v := c.Counters.Val
				if v(metrics.CRetries) != 1 || v(metrics.CFailovers) != 1 || v(metrics.CSends) != 1 ||
					v(metrics.CCancels) != 1 || v(metrics.CTimeouts) != 0 {
					t.Errorf("retries %d, failovers %d, sends %d, cancels %d, timeouts %d; want 1, 1, 1, 1, 0",
						v(metrics.CRetries), v(metrics.CFailovers), v(metrics.CSends), v(metrics.CCancels), v(metrics.CTimeouts))
				}
				if !req.Canceled() || req.Attempts != 1 {
					t.Errorf("the request: canceled %v after %d attempts, want canceled after 1", req.Canceled(), req.Attempts)
				}
				c.Release(req)
			})
			if err := r.census().Err(); err != nil {
				t.Error(err)
			}
		})
	}
}
