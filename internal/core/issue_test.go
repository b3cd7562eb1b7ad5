package core

import (
	"errors"
	"fmt"
	"hybridkv/internal/metrics"
	"strings"
	"testing"

	"hybridkv/internal/protocol"
	"hybridkv/internal/server"
	"hybridkv/internal/sim"
	"hybridkv/internal/simnet"
)

// filterInjector drops client→server messages selected by pick (which sees
// the 1-based count of client-originated messages so far). Responses and
// acks flow untouched.
type filterInjector struct {
	pick func(n int) bool
	n    int
}

func (fi *filterInjector) Transmit(src, dst string, size int, now sim.Time) simnet.Verdict {
	if !strings.HasPrefix(src, "client") {
		return simnet.Verdict{}
	}
	fi.n++
	return simnet.Verdict{Drop: fi.pick(fi.n)}
}

func dropAllRequests() *filterInjector {
	return &filterInjector{pick: func(int) bool { return true }}
}

// TestIssueOutcomes is the table-driven outcome matrix for the unified
// issue API: success, protocol errors, deadline expiry, and retry
// convergence, each checked via Err() and the fault counters.
func TestIssueOutcomes(t *testing.T) {
	cases := []struct {
		name string
		// drop selects client messages to lose (nil = clean fabric).
		drop func(n int) bool
		// preload stores key k before the measured issue.
		preload bool
		op      Op
		opts    []IssueOption
		wantErr error
		// wantAttempts is checked when > 0.
		wantAttempts int
		wantTimeouts int64
		wantRetries  int64
	}{
		{
			name:    "clean set succeeds",
			op:      Op{Code: protocol.OpSet, Key: "k", ValueSize: 4096, Value: "v"},
			wantErr: nil,
		},
		{
			name:    "get of missing key maps to ErrNotFound",
			op:      Op{Code: protocol.OpGet, Key: "nope"},
			wantErr: ErrNotFound,
		},
		{
			name:    "add over existing key maps to ErrNotStored",
			preload: true,
			op:      Op{Code: protocol.OpAdd, Key: "k", ValueSize: 64, Value: "w"},
			wantErr: ErrNotStored,
		},
		{
			name:         "dropped request with deadline only expires",
			drop:         func(int) bool { return true },
			op:           Op{Code: protocol.OpGet, Key: "k"},
			opts:         []IssueOption{WithDeadline(200 * sim.Microsecond)},
			wantErr:      ErrDeadlineExceeded,
			wantAttempts: 1,
			wantTimeouts: 1,
		},
		{
			name:    "dropped request retries and converges",
			drop:    func(n int) bool { return n == 1 },
			preload: true,
			op:      Op{Code: protocol.OpGet, Key: "k"},
			opts: []IssueOption{WithRetry(RetryPolicy{
				MaxAttempts: 3, AttemptTimeout: 100 * sim.Microsecond,
				Backoff: sim.Microsecond, Jitter: -1,
			})},
			wantErr:      nil,
			wantAttempts: 2,
			wantRetries:  1,
		},
		{
			name: "every attempt dropped exhausts retries",
			drop: func(int) bool { return true },
			op:   Op{Code: protocol.OpGet, Key: "k"},
			opts: []IssueOption{WithRetry(RetryPolicy{
				MaxAttempts: 3, AttemptTimeout: 50 * sim.Microsecond,
				Backoff: sim.Microsecond, Jitter: -1,
			})},
			wantErr:      ErrDeadlineExceeded,
			wantAttempts: 3,
			wantTimeouts: 1,
			wantRetries:  2,
		},
		{
			name: "deadline cuts retry loop short",
			drop: func(int) bool { return true },
			op:   Op{Code: protocol.OpGet, Key: "k"},
			opts: []IssueOption{
				WithDeadline(120 * sim.Microsecond),
				WithRetry(RetryPolicy{
					MaxAttempts: 100, AttemptTimeout: 50 * sim.Microsecond,
					Backoff: sim.Microsecond, Jitter: -1,
				}),
			},
			wantErr:      ErrDeadlineExceeded,
			wantAttempts: 3, // two 50µs attempts fit; the third is cut at 120µs
			wantTimeouts: 1,
			wantRetries:  2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newTestRig(rigOpts{transport: RDMA, pipeline: server.Async})
			var req *Req
			sim.Drive(t, r.env, "bench", func(p *sim.Proc) {
				if tc.preload {
					r.client.Set(p, "k", 4096, "v0", 0, 0)
				}
				if tc.drop != nil {
					r.fabric.SetFaults(&filterInjector{pick: tc.drop})
				}
				var err error
				req, err = r.client.Issue(p, tc.op, tc.opts...)
				if err != nil {
					t.Errorf("issue: %v", err)
					return
				}
				r.client.Wait(p, req)
			})
			if req == nil {
				t.Fatal("no request issued")
			}
			if err := req.Err(); !errors.Is(err, tc.wantErr) {
				t.Errorf("Err() = %v, want %v", err, tc.wantErr)
			}
			if tc.wantAttempts > 0 && req.Attempts != tc.wantAttempts {
				t.Errorf("attempts = %d, want %d", req.Attempts, tc.wantAttempts)
			}
			if got := r.client.Counters.Val(metrics.CTimeouts); got != tc.wantTimeouts {
				t.Errorf("timeouts counter = %d, want %d", got, tc.wantTimeouts)
			}
			if got := r.client.Counters.Val(metrics.CRetries); got != tc.wantRetries {
				t.Errorf("retries counter = %d, want %d", got, tc.wantRetries)
			}
			if tc.wantErr == ErrDeadlineExceeded && !req.TimedOut() {
				t.Error("TimedOut() = false after deadline expiry")
			}
		})
	}
}

// A deadline must complete the request exactly once even when the guard's
// expiry races a WaitTimeout caller and a later stale response.
func TestDeadlineFiresExactlyOnce(t *testing.T) {
	r := newTestRig(rigOpts{transport: RDMA, pipeline: server.Async})
	var req *Req
	sim.Drive(t, r.env, "bench", func(p *sim.Proc) {
		r.fabric.SetFaults(dropAllRequests())
		var err error
		req, err = r.client.Issue(p, Op{Code: protocol.OpGet, Key: "k"},
			WithDeadline(100*sim.Microsecond))
		if err != nil {
			t.Errorf("issue: %v", err)
			return
		}
		// Both the guard and this wait observe the timeout; expiry must
		// still be recorded once.
		if r.client.WaitTimeout(p, req, 100*sim.Microsecond) {
			t.Error("WaitTimeout reported completion for a dropped request")
		}
		p.Sleep(sim.Millisecond)
	})
	if n := r.client.Counters.Val(metrics.CTimeouts); n != 1 {
		t.Errorf("timeouts counter = %d, want exactly 1", n)
	}
	if !errors.Is(req.Err(), ErrDeadlineExceeded) {
		t.Errorf("Err() = %v", req.Err())
	}
	if r.client.Counters.Val(metrics.CCompleted) != 0 {
		t.Errorf("Completed = %d for a request that never got a response", r.client.Counters.Val(metrics.CCompleted))
	}
}

// Canceling in-flight requests must return their flow-control credits:
// after filling the server's entire receive depth with doomed requests and
// canceling them, a fresh blocking op must still complete.
func TestCancelReturnsCredit(t *testing.T) {
	r := newTestRig(rigOpts{transport: RDMA, pipeline: server.Async})
	depth := r.servers[0].RecvDepth()
	var st protocol.Status
	sim.Drive(t, r.env, "bench", func(p *sim.Proc) {
		r.fabric.SetFaults(dropAllRequests())
		reqs := make([]*Req, 0, depth)
		for i := 0; i < depth; i++ {
			req, err := r.client.Issue(p, Op{Code: protocol.OpGet, Key: fmt.Sprintf("k%d", i)})
			if err != nil {
				t.Errorf("issue %d: %v", i, err)
				return
			}
			reqs = append(reqs, req)
		}
		p.Sleep(100 * sim.Microsecond) // let every attempt consume its credit
		for _, req := range reqs {
			r.client.Cancel(req)
		}
		for _, req := range reqs {
			if !errors.Is(req.Err(), ErrCanceled) {
				t.Errorf("Err() = %v, want ErrCanceled", req.Err())
			}
			if !req.Canceled() {
				t.Error("Canceled() = false")
			}
		}
		r.fabric.SetFaults(nil)
		// Would deadlock here if any credit leaked.
		st = r.client.Set(p, "after", 4096, "v", 0, 0)
	})
	if st != protocol.StatusStored {
		t.Errorf("post-cancel set status %v", st)
	}
	if n := r.client.Counters.Val(metrics.CCancels); n != int64(depth) {
		t.Errorf("cancels counter = %d, want %d", n, depth)
	}
	if r.client.Counters.Val(metrics.CCompleted) != 1 {
		t.Errorf("Completed = %d, want 1 (only the post-cancel set)", r.client.Counters.Val(metrics.CCompleted))
	}
}

// Cancel after completion is a no-op and Err keeps the real outcome.
func TestCancelAfterDoneIsNoop(t *testing.T) {
	r := newTestRig(rigOpts{transport: RDMA, pipeline: server.Async})
	sim.Drive(t, r.env, "bench", func(p *sim.Proc) {
		req, _ := r.client.Issue(p, Op{Code: protocol.OpSet, Key: "k", ValueSize: 512, Value: "v"})
		r.client.Wait(p, req)
		r.client.Cancel(req)
		if err := req.Err(); err != nil {
			t.Errorf("Err() = %v after post-completion cancel", err)
		}
	})
	if n := r.client.Counters.Val(metrics.CCancels); n != 0 {
		t.Errorf("cancels counter = %d for a no-op cancel", n)
	}
}

// Failover retransmits must land on the other server and complete there —
// as a fast miss if the fallback lacks the key (cache semantics: a miss on
// the live server beats blocking on the dead one).
func TestRetryFailsOverToSecondServer(t *testing.T) {
	r := newTestRig(rigOpts{transport: RDMA, pipeline: server.Async, servers: 2})
	var req *Req
	sim.Drive(t, r.env, "bench", func(p *sim.Proc) {
		req0, _ := r.client.Issue(p, Op{Code: protocol.OpSet, Key: "k", ValueSize: 512, Value: "v"})
		home := connOf(req0).serverID
		r.client.Wait(p, req0)
		// Drop every request to the home server; the fallback must answer.
		r.fabric.SetFaults(&serverFilter{dst: fmt.Sprintf("server%d", home)})
		var err error
		req, err = r.client.Issue(p, Op{Code: protocol.OpGet, Key: "k"},
			WithRetry(RetryPolicy{
				MaxAttempts: 3, AttemptTimeout: 100 * sim.Microsecond,
				Backoff: sim.Microsecond, Jitter: -1, Failover: true,
			}))
		if err != nil {
			t.Errorf("issue: %v", err)
			return
		}
		r.client.Wait(p, req)
	})
	if err := req.Err(); err != nil && !errors.Is(err, ErrNotFound) {
		t.Fatalf("failover get: %v", err)
	}
	if !req.Done() {
		t.Fatal("failover get never completed")
	}
	if req.Attempts < 2 {
		t.Errorf("attempts = %d, want ≥2", req.Attempts)
	}
	if n := r.client.Counters.Val(metrics.CFailovers); n == 0 {
		t.Error("failovers counter = 0")
	}
}

// serverFilter drops client requests addressed to one server.
type serverFilter struct{ dst string }

func (sf *serverFilter) Transmit(src, dst string, size int, now sim.Time) simnet.Verdict {
	return simnet.Verdict{Drop: strings.HasPrefix(src, "client") && dst == sf.dst}
}

// A WaitAny batch with one doomed and one healthy request must return the
// healthy index first; WaitAll must drain both and surface the error.
func TestWaitAnyAndWaitAllWithFailures(t *testing.T) {
	r := newTestRig(rigOpts{transport: RDMA, pipeline: server.Async})
	sim.Drive(t, r.env, "bench", func(p *sim.Proc) {
		r.client.Set(p, "k", 512, "v", 0, 0)
		r.fabric.SetFaults(&filterInjector{pick: func(n int) bool { return n == 1 }})
		doomed, _ := r.client.Issue(p, Op{Code: protocol.OpGet, Key: "k"},
			WithDeadline(300*sim.Microsecond))
		healthy, _ := r.client.Issue(p, Op{Code: protocol.OpGet, Key: "k"})
		reqs := []*Req{doomed, healthy}
		if i := r.client.WaitAny(p, reqs); i != 1 {
			t.Errorf("WaitAny = %d, want 1 (healthy request)", i)
		}
		err := r.client.WaitAll(p, reqs)
		if !errors.Is(err, ErrDeadlineExceeded) {
			t.Errorf("WaitAll = %v, want ErrDeadlineExceeded", err)
		}
		for i, req := range reqs {
			if !req.Done() {
				t.Errorf("req %d not drained by WaitAll", i)
			}
		}
	})
}

// The response to a pre-retransmit attempt must be absorbed as stale, not
// double-complete the request.
func TestLateResponseAfterRetransmitIsStale(t *testing.T) {
	r := newTestRig(rigOpts{transport: RDMA, pipeline: server.Async})
	var req *Req
	sim.Drive(t, r.env, "bench", func(p *sim.Proc) {
		r.client.Set(p, "k", 512, "v", 0, 0)
		// Delay (not drop) the first request enough that the guard
		// retransmits; the original response then arrives late.
		r.fabric.SetFaults(&delayFirst{d: 500 * sim.Microsecond})
		var err error
		req, err = r.client.Issue(p, Op{Code: protocol.OpGet, Key: "k"},
			WithRetry(RetryPolicy{
				MaxAttempts: 2, AttemptTimeout: 100 * sim.Microsecond,
				Backoff: sim.Microsecond, Jitter: -1,
			}))
		if err != nil {
			t.Errorf("issue: %v", err)
			return
		}
		r.client.Wait(p, req)
		p.Sleep(2 * sim.Millisecond) // let the delayed original land
	})
	if err := req.Err(); err != nil {
		t.Fatalf("retried get: %v", err)
	}
	if req.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", req.Attempts)
	}
	if n := r.client.Counters.Val(metrics.CStaleResponses); n != 1 {
		t.Errorf("stale-responses = %d, want 1 (the late original reply)", n)
	}
	if r.client.Counters.Val(metrics.CCompleted) != 2 { // preload set + the retried get
		t.Errorf("Completed = %d, want 2", r.client.Counters.Val(metrics.CCompleted))
	}
}

// delayFirst adds a large delay to the first client request only.
type delayFirst struct {
	d sim.Time
	n int
}

func (df *delayFirst) Transmit(src, dst string, size int, now sim.Time) simnet.Verdict {
	if !strings.HasPrefix(src, "client") {
		return simnet.Verdict{}
	}
	df.n++
	if df.n == 1 {
		return simnet.Verdict{ExtraDelay: df.d}
	}
	return simnet.Verdict{}
}

// Issue hashes a key once and its message carries the hash (protocol.Key) to
// the server, on both transports: the store files a SET under it, which the
// census holds to FNV1a of the key, and counts a GET's heat under it, which
// Heat finds by the key's own hash.
func TestIssueCarriesTheKeyHash(t *testing.T) {
	for _, tr := range []Transport{RDMA, IPoIB} {
		r := newTestRig(rigOpts{transport: tr})
		sim.Drive(t, r.env, "issue", func(p *sim.Proc) {
			r.client.Set(p, "carried", 64, "v", 0, 0)
			for range 3 {
				req, _ := r.client.Issue(p, Op{Code: protocol.OpGet, Key: "carried"})
				r.client.Wait(p, req)
				r.client.Release(req)
			}
		})
		if got := r.servers[0].Store().Heat("carried"); got != 3 {
			t.Errorf("%v: the store counted %d GETs of the key under its hash, want 3", tr, got)
		}
		if err := r.census().Err(); err != nil {
			t.Errorf("%v: %v", tr, err)
		}
		r.env.Close()
	}
}
