package core

import (
	"hybridkv/internal/metrics"
	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
	"hybridkv/internal/verbs"
)

// Doorbell batching (RFP-style coalescing): operations issued inside an
// explicit BeginBatch/Flush window are merged per connection into a single
// BatchFrame — one doorbell, one wire send, one flow-control credit, and one
// server receive-repost for N operations. Responses are untouched: each
// member keeps its own request id and registered response slot, so the
// server still scatters one response per op.

const (
	// MaxBatchOps caps the operations coalesced into one BatchFrame.
	MaxBatchOps = 64
	// BatchInlineMax is the largest value carried inline in a frame;
	// bigger stores are posted as their own doorbell so one fat value
	// cannot stall a frame of small ops behind its DMA.
	BatchInlineMax = 64 << 10
)

// txBatch is the client-side record of one coalesced frame in flight. The
// whole frame consumed a single flow-control credit; the record is what its
// members' settle (issue.go) arbitrates through — who returns the credit
// across batch acks, member responses, and per-op deadlines and cancels, and
// who, giving back the last slot, drops the record.
type txBatch struct {
	id             uint64
	members        []*attempt
	live           int // members still holding their slot: neither responded nor given up on
	creditReturned bool
}

// BeginBatch opens an explicit coalescing window: subsequent Issue calls on
// this client park their wire messages per connection instead of posting
// them, and Flush pushes each connection's parked ops out as one BatchFrame
// per doorbell. Windows nest; only the outermost Flush sends.
//
// Inside a window, WithBufferAck does not block Issue (nothing is on the
// wire yet): the buffers become reusable after Flush, at DMA-sent time or —
// against an async server — at the single batch-wide BufferAck. RDMA
// transport only; on IPoIB use SetBuffering, the classic libmemcached mode.
func (c *Client) BeginBatch() error {
	if c.cfg.Transport != RDMA {
		return ErrTransport
	}
	c.batching++
	return nil
}

// Flush closes the innermost batch window. Closing the outermost window
// hands every connection's parked operations to its TX engine: values up to
// BatchInlineMax ride inline in coalesced frames of at most MaxBatchOps;
// larger stores are posted as individual doorbells. Flush does not wait for
// completions — use Wait/WaitAll as usual. Flushing with no open window is
// a no-op.
func (c *Client) Flush(p *sim.Proc) error {
	if c.cfg.Transport != RDMA {
		return ErrTransport
	}
	if c.batching == 0 {
		return nil
	}
	c.batching--
	if c.batching > 0 {
		return nil
	}
	for _, cn := range c.conns {
		if len(cn.window) == 0 {
			continue
		}
		items := cn.window
		cn.window = nil
		var inline, alone []*attempt
		for _, it := range cn.liveItems(items) {
			if it.frameable() {
				inline = append(inline, it)
			} else {
				alone = append(alone, it)
			}
		}
		for len(inline) > 1 {
			n := min(len(inline), MaxBatchOps)
			cn.txq.TryPut(txItem{frame: inline[:n]})
			inline = inline[n:]
		}
		for _, it := range inline { // a chunk of one is no frame
			cn.txq.TryPut(txItem{att: it})
		}
		for _, it := range alone {
			cn.txq.TryPut(txItem{att: it})
		}
	}
	return nil
}

// frameable reports whether the attempt may ride a coalesced frame. A value
// over BatchInlineMax is posted as its own doorbell, and so is the key-less
// control op (OpDirQuery): the server answers it in the communication phase
// of a bare request, and a frame has no control-plane case — inside one,
// nothing would answer it.
func (att *attempt) frameable() bool {
	return att.wire.ValueSize <= BatchInlineMax && att.wire.Op != protocol.OpDirQuery
}

// liveItems filters out of a frame the members that ended before they were
// sent (settle took their pending entries with it).
func (cn *conn) liveItems(items []*attempt) []*attempt {
	out := items[:0]
	for _, it := range items {
		if it.state == attQueued {
			out = append(out, it)
		}
	}
	return out
}

// postBatch sends one coalesced frame. The caller already holds the frame's
// single credit. Buffer-reusable events for every member fire at DMA-sent,
// exactly as for a single op.
func (cn *conn) postBatch(p *sim.Proc, items []*attempt) {
	c := cn.c
	c.nextID++
	frame := &protocol.BatchFrame{BatchID: c.nextID}
	b := &txBatch{id: frame.BatchID, live: len(items)}
	for _, att := range items {
		frame.Reqs = append(frame.Reqs, &att.wire)
		att.state = attSent
		att.batch = b
		b.members = append(b.members, att) // a copy: items may be the TX engine's stack
		if att.wire.AckWanted {
			frame.AckWanted = true
		}
	}
	cn.pendingBatch[b.id] = b
	c.Counters.Inc(metrics.CSends)
	c.Counters.Inc(metrics.CFrames)
	c.Counters.Add(metrics.CFrameOps, int64(len(items)))
	sent := cn.qp.PostSendReusable(p, verbs.SendWR{
		WRID:    b.id,
		Op:      verbs.OpSend,
		Size:    frame.WireSize(),
		Payload: frame,
	})
	p.Wait(sent)
	for _, att := range items {
		att.req.reusable.Fire()
	}
}
