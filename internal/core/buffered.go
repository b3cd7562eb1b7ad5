package core

import (
	"hybridkv/internal/metrics"
	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
)

// Default libmemcached's buffering behaviour
// (MEMCACHED_BEHAVIOR_BUFFER_REQUESTS), which the paper contrasts with its
// non-blocking extensions in Section IV-A: Set requests are queued inside
// the client and flushed when a data-returning action (a Get) arrives, when
// the queue fills, or on an explicit Flush. The crucial differences the
// paper calls out, reproduced here:
//
//   - The behaviour applies to the whole connection — every Set is deferred
//     once enabled, unlike iset/bset which coexist with blocking calls.
//   - A Get must first push out the queued Sets and wait for their
//     responses, so reads absorb the deferred write cost.
//   - There is no per-operation completion handle: nothing like
//     memcached_test/wait exists for a buffered Set.
//
// Buffered mode is an IPoIB-transport feature (it emulates classic
// libmemcached over sockets).

// bufferFlushThreshold is the queued-Set count that forces a flush, as
// libmemcached's output buffer would.
const bufferFlushThreshold = 64

// SetBuffering toggles libmemcached-style request buffering on an IPoIB
// client. Enabling on an RDMA client returns ErrTransport (use the
// non-blocking extensions there instead).
func (c *Client) SetBuffering(on bool) error {
	if c.cfg.Transport != IPoIB {
		return ErrTransport
	}
	c.buffering = on
	return nil
}

// bufferSet queues the Set on cn; the caller regains control (and its
// buffers — the queue copies) immediately, holding a request that is already
// complete: libmemcached reports BUFFERED as success, and nothing the server
// later says about a deferred Set reaches its handle. Its attempt ends with
// it, without a verdict, so whatever routing took for it — a half-open
// breaker's probe slot — goes back through settle.
func (c *Client) bufferSet(p *sim.Proc, cn *conn, op Op, req *Req) *Req {
	p.Sleep(prepCost)
	c.initReq(req, op)
	p.Sleep(sim.TransferTime(op.ValueSize, sim.MemcpyBps)) // copy into the output buffer
	cn.buffered = append(cn.buffered, &req.attach(cn, attOffWire).wire)
	c.Counters.Inc(metrics.CIssued)
	req.finish(completed, &protocol.Response{Status: protocol.StatusStored})
	if len(cn.buffered) >= bufferFlushThreshold {
		c.flushConn(p, cn)
	}
	return req
}

// FlushBuffers pushes out every queued Set and waits for the responses.
func (c *Client) FlushBuffers(p *sim.Proc) {
	for _, cn := range c.conns {
		c.flushConn(p, cn)
	}
}

// flushConn drains one connection's queue: the queued Sets leave as one
// vectored BatchFrame — a single kernel send (writev) instead of one syscall
// and stream message per op — then their responses are awaited in order. A
// queue of one skips the frame overhead and sends the bare request.
func (c *Client) flushConn(p *sim.Proc, cn *conn) {
	if len(cn.buffered) == 0 {
		return
	}
	batch := cn.buffered
	cn.buffered = nil
	c.Counters.Inc(metrics.CSends)
	if len(batch) == 1 {
		cn.stream.Send(p, batch[0].WireSize(), batch[0])
	} else {
		c.nextID++
		frame := &protocol.BatchFrame{BatchID: c.nextID, Reqs: batch}
		c.Counters.Inc(metrics.CFrames)
		c.Counters.Add(metrics.CFrameOps, int64(len(batch)))
		cn.stream.Send(p, frame.WireSize(), frame)
	}
	// Statuses of deferred sets are not reported per-op, and each was counted
	// complete when it was queued: the responses are only drained.
	for range batch {
		if _, ok := cn.stream.Recv(p); !ok {
			break
		}
	}
}
