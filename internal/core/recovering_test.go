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

// TestRetryRidesOutColdRestart: a guarded request issued while the server's
// recovery scan is running is rejected with StatusRecovering per attempt —
// each rejection nudges the guard into a prompt retransmit — and completes
// with the recovered value once the scan finishes. An unguarded request
// fails fast with ErrRecovering instead of blocking on the outage.
func TestRetryRidesOutColdRestart(t *testing.T) {
	r := newTestRig(rigOpts{
		transport: RDMA, pipeline: server.Async,
		hybrid: true, memLimit: 1 << 20, policy: hybridslab.PolicyDirect,
	})
	c := r.client
	srv := r.servers[0]
	var bare, guarded *Req
	sim.Drive(t, r.env, "bench", func(p *sim.Proc) {
		for i := 0; i < 40; i++ { // 40 × 32 KB into 1 MB: most keys flush
			if st := c.Set(p, fmt.Sprintf("k%02d", i), 32<<10, i, 0, 0); st != protocol.StatusStored {
				t.Errorf("fill set %d status %v", i, st)
			}
		}
		srv.Crash()
		p.Sleep(100 * sim.Microsecond)
		srv.RestartCold()

		// Unguarded: the recovering rejection is final.
		var err error
		bare, err = c.Issue(p, Op{Code: protocol.OpGet, Key: "k00"})
		if err != nil {
			t.Errorf("issue: %v", err)
			return
		}
		c.Wait(p, bare)

		// Guarded: rides out the whole scan.
		guarded, err = c.Issue(p, Op{Code: protocol.OpGet, Key: "k00"},
			WithRetry(RetryPolicy{
				MaxAttempts: 60, AttemptTimeout: 200 * sim.Microsecond,
				Backoff: 50 * sim.Microsecond, MaxBackoff: 400 * sim.Microsecond,
				Jitter: -1,
			}))
		if err != nil {
			t.Errorf("issue: %v", err)
			return
		}
		c.Wait(p, guarded)
	})

	if bare == nil || guarded == nil {
		t.Fatal("requests never issued")
	}
	if !errors.Is(bare.Err(), ErrRecovering) {
		t.Errorf("unguarded err = %v, want ErrRecovering", bare.Err())
	}
	if err := guarded.Err(); err != nil {
		t.Fatalf("guarded get did not ride out recovery: %v", err)
	}
	if guarded.Value != 0 {
		t.Errorf("guarded get value = %v, want 0 (the recovered k00)", guarded.Value)
	}
	if guarded.Attempts < 2 {
		t.Errorf("attempts = %d, want ≥2 (at least one recovering rejection)", guarded.Attempts)
	}
	if n := c.Counters.Val(metrics.CRecovering); n == 0 {
		t.Error("recovering counter = 0; nudge path never exercised")
	}
	if srv.Rejected < 2 {
		t.Errorf("server Rejected = %d, want ≥2", srv.Rejected)
	}
}

// TestCrashMidBatchFrameFailsAllMembers: a server crash while a coalesced
// BatchFrame is in flight must fail every member with the deadline sentinel
// — no member may hang or complete against the dead server — and the same
// idempotent members converge under WithRetry failover to the live replica.
func TestCrashMidBatchFrameFailsAllMembers(t *testing.T) {
	r := newTestRig(rigOpts{transport: RDMA, pipeline: server.Async, servers: 2})
	c := r.client
	var doomed, retried []*Req
	sim.Drive(t, r.env, "bench", func(p *sim.Proc) {
		req0, _ := c.Issue(p, Op{Code: protocol.OpSet, Key: "k", ValueSize: 4096, Value: "v"})
		c.Wait(p, req0)
		home := r.servers[req0.cn.serverID]

		// The frame is built, then its server dies before it can be served.
		c.BeginBatch()
		for i := 0; i < 4; i++ {
			req, err := c.Issue(p, Op{Code: protocol.OpGet, Key: "k"},
				WithDeadline(300*sim.Microsecond))
			if err != nil {
				t.Errorf("issue: %v", err)
				return
			}
			doomed = append(doomed, req)
		}
		home.Crash()
		c.Flush(p)
		c.WaitAll(p, doomed)

		// Same shape under a guard: every member retries individually and
		// fails over to the surviving server (which answers, if only with a
		// miss — cache semantics beat blocking on the dead replica).
		c.BeginBatch()
		for i := 0; i < 4; i++ {
			req, err := c.Issue(p, Op{Code: protocol.OpGet, Key: "k"},
				WithRetry(RetryPolicy{
					MaxAttempts: 3, AttemptTimeout: 100 * sim.Microsecond,
					Backoff: sim.Microsecond, Jitter: -1, Failover: true,
				}))
			if err != nil {
				t.Errorf("issue: %v", err)
				return
			}
			retried = append(retried, req)
		}
		c.Flush(p)
		c.WaitAll(p, retried)
	})

	if len(doomed) != 4 || len(retried) != 4 {
		t.Fatalf("issued %d+%d members, want 4+4", len(doomed), len(retried))
	}
	for i, req := range doomed {
		if !errors.Is(req.Err(), ErrDeadlineExceeded) {
			t.Errorf("doomed member %d err = %v, want ErrDeadlineExceeded", i, req.Err())
		}
	}
	for i, req := range retried {
		if err := req.Err(); err != nil && !errors.Is(err, ErrNotFound) {
			t.Errorf("guarded member %d did not converge: %v", i, err)
		}
		if !req.Done() {
			t.Errorf("guarded member %d never completed", i)
		}
		if req.Attempts < 2 {
			t.Errorf("guarded member %d attempts = %d, want ≥2", i, req.Attempts)
		}
	}
	if n := c.Counters.Val(metrics.CFailovers); n == 0 {
		t.Error("failovers counter = 0")
	}
}
