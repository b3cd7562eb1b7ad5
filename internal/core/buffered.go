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

// bufferedSet queues the Set locally; the caller regains control (and its
// buffers — the queue copies) immediately.
func (c *Client) bufferedSet(p *sim.Proc, key string, valueSize int, value any, flags, expire uint32) protocol.Status {
	cn := c.route(key, routeWrite, nil)
	p.Sleep(prepCost)
	p.Sleep(memcpyTime(valueSize)) // copy into the output buffer
	c.nextID++
	cn.buffered = append(cn.buffered, &protocol.Request{
		Op: protocol.OpSet, ReqID: c.nextID, Key: key,
		ValueSize: valueSize, Value: value, Flags: flags, Expire: expire,
	})
	c.Issued++
	if len(cn.buffered) >= bufferFlushThreshold {
		c.flushConn(p, cn)
	}
	return protocol.StatusStored // libmemcached reports BUFFERED/SUCCESS
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
	t0 := p.Now()
	c.Sends++
	if len(batch) == 1 {
		cn.stream.Send(p, batch[0].WireSize(), batch[0])
	} else {
		c.nextID++
		frame := &protocol.BatchFrame{BatchID: c.nextID, Reqs: batch}
		c.Frames++
		c.FrameOps += int64(len(batch))
		cn.stream.Send(p, frame.WireSize(), frame)
	}
	for range batch {
		msg, ok := cn.stream.Recv(p)
		if !ok {
			break
		}
		resp := msg.Payload.(*protocol.Response)
		_ = resp // statuses of deferred sets are not reported per-op
		c.Completed++
	}
	c.Prof.Add(metrics.StageClientWait, p.Now()-t0)
}
