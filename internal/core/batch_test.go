package core

import (
	"errors"
	"hybridkv/internal/metrics"
	"testing"

	"hybridkv/internal/protocol"
	"hybridkv/internal/server"
	"hybridkv/internal/sim"
)

// TestBatchWindowCoalesces locks the happy path: N ops issued inside a
// BeginBatch/Flush window leave as one frame — one wire send, one credit —
// and every member still completes into its own slot.
func TestBatchWindowCoalesces(t *testing.T) {
	for _, pl := range []server.Pipeline{server.Sync, server.Async} {
		r := newTestRig(rigOpts{transport: RDMA, pipeline: pl})
		c := r.client
		var reqs []*Req
		sim.Drive(t, r.env, "bench", func(p *sim.Proc) {
			c.Set(p, "k", 4096, "v0", 0, 0)
			sends0, frames0 := c.Counters.Val(metrics.CSends), c.Counters.Val(metrics.CFrames)
			if err := c.BeginBatch(); err != nil {
				t.Errorf("BeginBatch: %v", err)
				return
			}
			for i := 0; i < 4; i++ {
				req, err := c.IGet(p, "k")
				if err != nil {
					t.Errorf("IGet: %v", err)
					return
				}
				reqs = append(reqs, req)
			}
			if err := c.Flush(p); err != nil {
				t.Errorf("Flush: %v", err)
				return
			}
			c.WaitAll(p, reqs)
			if got := c.Counters.Val(metrics.CSends) - sends0; got != 1 {
				t.Errorf("pipeline %v: %d wire sends for the window, want 1", pl, got)
			}
			if got := c.Counters.Val(metrics.CFrames) - frames0; got != 1 {
				t.Errorf("pipeline %v: %d frames, want 1", pl, got)
			}
		})
		if len(reqs) != 4 {
			t.Fatalf("pipeline %v: issued %d reqs", pl, len(reqs))
		}
		for i, req := range reqs {
			if err := req.Err(); err != nil {
				t.Errorf("pipeline %v: req %d: %v", pl, i, err)
			}
			if req.Value != "v0" {
				t.Errorf("pipeline %v: req %d value %v", pl, i, req.Value)
			}
		}
		if r.servers[0].Batches != 1 {
			t.Errorf("pipeline %v: server saw %d batches, want 1", pl, r.servers[0].Batches)
		}
	}
}

// TestBatchWindowsDoNotNest: a BeginBatch on an open window changes nothing
// — each op is parked once — and the one Flush sends the single frame one
// window would; a second Flush has no window to close and sends nothing.
func TestBatchWindowsDoNotNest(t *testing.T) {
	r := newTestRig(rigOpts{transport: RDMA, pipeline: server.Async})
	c := r.client
	var sends0, frames0 int64
	sim.Drive(t, r.env, "bench", func(p *sim.Proc) {
		c.Set(p, "k", 4096, "v0", 0, 0)
		sends0, frames0 = c.Counters.Val(metrics.CSends), c.Counters.Val(metrics.CFrames)
		var reqs []*Req
		for i := 0; i < 4; i++ {
			c.BeginBatch()
			req, _ := c.IGet(p, "k")
			reqs = append(reqs, req)
		}
		if n := len(c.conns[0].window); n != 4 {
			t.Errorf("%d attempts parked for 4 ops, want 4", n)
		}
		c.Flush(p)
		c.Flush(p)
		c.WaitAll(p, reqs)
	})
	sends, frames := c.Counters.Val(metrics.CSends)-sends0, c.Counters.Val(metrics.CFrames)-frames0
	if sends != 1 || frames != 1 {
		t.Errorf("%d sends and %d frames, want 1 and 1", sends, frames)
	}
}

// TestDroppedBatchFrameRetriesAndConverges: losing a whole coalesced frame
// must look to every member like its own lost attempt — each retries under
// WithRetry and converges, even though the original send was shared.
func TestDroppedBatchFrameRetriesAndConverges(t *testing.T) {
	r := newTestRig(rigOpts{transport: RDMA, pipeline: server.Async})
	c := r.client
	var reqs []*Req
	sim.Drive(t, r.env, "bench", func(p *sim.Proc) {
		c.Set(p, "k", 4096, "v0", 0, 0)
		// Drop exactly the next client message: the BatchFrame.
		r.fabric.SetFaults(&filterInjector{pick: func(n int) bool { return n == 1 }})
		c.BeginBatch()
		for i := 0; i < 4; i++ {
			req, err := c.Issue(p, Op{Code: protocol.OpGet, Key: "k"},
				WithRetry(RetryPolicy{
					MaxAttempts: 3, AttemptTimeout: 100 * sim.Microsecond,
					Backoff: sim.Microsecond, Jitter: -1,
				}))
			if err != nil {
				t.Errorf("issue: %v", err)
				return
			}
			reqs = append(reqs, req)
		}
		c.Flush(p)
		c.WaitAll(p, reqs)
	})
	for i, req := range reqs {
		if err := req.Err(); err != nil {
			t.Errorf("req %d did not converge: %v", i, err)
		}
		if req.Attempts != 2 {
			t.Errorf("req %d attempts = %d, want 2 (frame lost, retry delivered)", i, req.Attempts)
		}
	}
	if got := c.Counters.Val(metrics.CRetries); got != 4 {
		t.Errorf("retries counter = %d, want 4 (one per member)", got)
	}
}

// TestCancelInsideBatchSparesSiblings: canceling one member of an in-flight
// frame tombstones only its slot; the siblings retry and complete normally.
func TestCancelInsideBatchSparesSiblings(t *testing.T) {
	r := newTestRig(rigOpts{transport: RDMA, pipeline: server.Async})
	c := r.client
	var reqs []*Req
	sim.Drive(t, r.env, "bench", func(p *sim.Proc) {
		c.Set(p, "k", 4096, "v0", 0, 0)
		// Lose the frame so the batch is still unresolved when we cancel.
		r.fabric.SetFaults(&filterInjector{pick: func(n int) bool { return n == 1 }})
		c.BeginBatch()
		for i := 0; i < 4; i++ {
			req, err := c.Issue(p, Op{Code: protocol.OpGet, Key: "k"},
				WithRetry(RetryPolicy{
					MaxAttempts: 3, AttemptTimeout: 200 * sim.Microsecond,
					Backoff: sim.Microsecond, Jitter: -1,
				}))
			if err != nil {
				t.Errorf("issue: %v", err)
				return
			}
			reqs = append(reqs, req)
		}
		c.Flush(p)
		p.Sleep(50 * sim.Microsecond) // frame is lost, timers not yet fired
		c.Cancel(reqs[2])
		c.WaitAll(p, reqs)
	})
	for i, req := range reqs {
		if i == 2 {
			if !errors.Is(req.Err(), ErrCanceled) {
				t.Errorf("canceled req err = %v, want ErrCanceled", req.Err())
			}
			continue
		}
		if err := req.Err(); err != nil {
			t.Errorf("sibling %d disturbed by cancel: %v", i, err)
		}
		if req.Value != "v0" {
			t.Errorf("sibling %d value %v", i, req.Value)
		}
	}
	if got := c.Counters.Val(metrics.CCancels); got != 1 {
		t.Errorf("cancels counter = %d, want 1", got)
	}
}

// TestBatchBufferAckCoversWholeFrame: against the async server, a frame of
// WithBufferAck stores gets ONE early BufferAck that marks every member's
// buffers reusable and server-buffered.
func TestBatchBufferAckCoversWholeFrame(t *testing.T) {
	r := newTestRig(rigOpts{transport: RDMA, pipeline: server.Async})
	c := r.client
	var reqs []*Req
	sim.Drive(t, r.env, "bench", func(p *sim.Proc) {
		acks0 := r.servers[0].Acks
		c.BeginBatch()
		for i := 0; i < 4; i++ {
			req, err := c.Issue(p, Op{Code: protocol.OpSet, Key: "k", ValueSize: 4096, Value: i},
				WithBufferAck())
			if err != nil {
				t.Errorf("issue: %v", err)
				return
			}
			reqs = append(reqs, req)
		}
		c.Flush(p)
		c.WaitAll(p, reqs)
		if got := r.servers[0].Acks - acks0; got != 1 {
			t.Errorf("server sent %d acks for the frame, want 1", got)
		}
	})
	for i, req := range reqs {
		if err := req.Err(); err != nil {
			t.Errorf("req %d: %v", i, err)
		}
		if !req.Acked() {
			t.Errorf("req %d not marked acked by the batch-wide BufferAck", i)
		}
	}
}

// TestBatchOnIPoIBRejected: the explicit window is an RDMA feature; the
// socket path keeps libmemcached-style SetBuffering.
func TestBatchOnIPoIBRejected(t *testing.T) {
	r := newTestRig(rigOpts{transport: IPoIB})
	if err := r.client.BeginBatch(); !errors.Is(err, ErrTransport) {
		t.Errorf("BeginBatch on IPoIB = %v, want ErrTransport", err)
	}
}
