// Package verbs provides an ibverbs-shaped RDMA interface over the simnet
// fabric, plus an IP-over-IB stream emulation for the default Memcached
// path.
//
// The client and server runtimes in this repository are written against this
// API the same way RDMA-Memcached is written against libibverbs: protection
// domains, memory regions registered at set-up, reliable-connected queue
// pairs, completion queues that are polled, two-sided SEND/RECV and one-sided
// RDMA WRITE / WRITE-with-immediate / READ. Only the wire underneath is
// simulated.
//
// Semantics modeled:
//
//   - SEND consumes a pre-posted RECV at the responder and generates a
//     completion on the responder's receive CQ. The requester's send
//     completion fires when the RC ACK returns (serialization + 2×prop),
//     at which point the source buffer is reusable. Inline sends copy at
//     post time, so the buffer is reusable immediately.
//   - RDMA WRITE deposits the payload into the remote MR with no remote CPU
//     involvement and no remote completion. WRITE_IMM additionally consumes
//     a RECV and completes on the responder's receive CQ.
//   - RDMA READ fetches the remote MR's current contents with no remote CPU
//     involvement; the local completion carries the data.
//   - Posting any WR charges the caller a doorbell cost; the NIC performs
//     the transfer asynchronously (this is what non-blocking iset/iget
//     exploit).
package verbs

import (
	"fmt"

	"hybridkv/internal/sim"
	"hybridkv/internal/simnet"
)

// Op identifies a work-request / completion opcode.
type Op int

const (
	OpSend Op = iota
	OpRecv
	OpWrite
	OpWriteImm
	OpRead
)

const (
	doorbellCost = 200 * sim.Nanosecond
	readReqBytes = 16 // RDMA READ request packet size on the wire
)

// Device is the HCA attached to one fabric node.
type Device struct {
	env    *sim.Env
	node   *simnet.Node
	qps    map[int]*QP
	mrs    map[int]*MR
	nextQP int
	nextMR int

	// Stats
	SendsPosted, WritesPosted, ReadsPosted int64
}

// OpenDevice attaches an HCA to node and installs its packet demultiplexer.
func OpenDevice(node *simnet.Node) *Device {
	d := &Device{
		env:  node.Fabric().Env(),
		node: node,
		qps:  make(map[int]*QP),
		mrs:  make(map[int]*MR),
	}
	node.SetReceiver(d.deliver)
	return d
}

// PD is a protection domain.
type PD struct{ dev *Device }

// AllocPD allocates a protection domain (free in sim time, as in practice).
func (d *Device) AllocPD() *PD { return &PD{dev: d} }

// MR is a registered memory region. Contents are modeled as an opaque
// payload slot that RDMA WRITEs deposit into and RDMA READs fetch from.
// Regions that serve offset-addressed READs (the server-bypass directory)
// additionally carry a segment map keyed by byte offset; a READ with a
// remote offset fetches the segment at that offset instead of the whole
// payload slot.
type MR struct {
	lkey     int
	size     int
	payload  any
	plen     int
	segments map[int64]mrSegment
}

// mrSegment is one offset-addressed region of an MR's contents.
type mrSegment struct {
	v any
	n int
}

// RegisterMRSetup registers a region with no time charge; for simulation
// setup outside any process.
func (pd *PD) RegisterMRSetup(size int) *MR {
	d := pd.dev
	d.nextMR++
	mr := &MR{lkey: d.nextMR, size: size}
	d.mrs[mr.lkey] = mr
	return mr
}

// LKey returns the region's local key (also used as its remote key).
func (mr *MR) LKey() int { return mr.lkey }

// Payload returns the last contents deposited in the region and its length.
func (mr *MR) Payload() (any, int) { return mr.payload, mr.plen }

// SetPayload stores contents into the region locally (memcpy cost is the
// caller's to model).
func (mr *MR) SetPayload(v any, n int) {
	if n > mr.size {
		panic(fmt.Sprintf("verbs: payload %d exceeds MR size %d", n, mr.size))
	}
	mr.payload, mr.plen = v, n
}

// SetSegment stores contents at a byte offset inside the region, making it
// addressable by RDMA READs carrying that offset. Offsets are opaque to the
// HCA model; the caller owns the allocation discipline.
func (mr *MR) SetSegment(off int64, v any, n int) {
	if off < 0 || off+int64(n) > int64(mr.size) {
		panic(fmt.Sprintf("verbs: segment [%d,%d) exceeds MR size %d", off, off+int64(n), mr.size))
	}
	if mr.segments == nil {
		mr.segments = make(map[int64]mrSegment)
	}
	mr.segments[off] = mrSegment{v: v, n: n}
}

// ClearSegment removes the segment at off; READs of it then return empty.
func (mr *MR) ClearSegment(off int64) {
	delete(mr.segments, off)
}

// ClearSegments drops every segment but keeps the region segment-addressed,
// so in-flight READs observe emptiness rather than the whole-payload slot.
func (mr *MR) ClearSegments() {
	mr.segments = make(map[int64]mrSegment)
}

// Segment returns the local contents at off (zero value if absent).
func (mr *MR) Segment(off int64) (any, int) {
	seg := mr.segments[off]
	return seg.v, seg.n
}

// Completion is one CQ entry.
type Completion struct {
	WRID    uint64
	Op      Op
	QPN     int // local QP number
	Bytes   int
	Payload any
	Imm     uint64
}

// CQ is a completion queue.
type CQ struct {
	dev *Device
	q   *sim.Queue[Completion]
}

// CreateCQ allocates a completion queue. Depth ≤ 0 means unbounded (the
// simulated HCA never overruns; overrun modeling is out of scope).
func (d *Device) CreateCQ(depth int) *CQ {
	return &CQ{dev: d, q: sim.NewQueue[Completion](d.env, depth)}
}

// Poll removes one completion without blocking.
func (cq *CQ) Poll() (Completion, bool) { return cq.q.TryGet() }

// WaitPoll blocks the process until a completion is available and returns it.
func (cq *CQ) WaitPoll(p *sim.Proc) Completion {
	c, _ := cq.q.Get(p)
	return c
}

func (cq *CQ) push(c Completion) {
	cq.q.TryPut(c)
}

// SendWR is a send-queue work request.
type SendWR struct {
	WRID uint64
	Op   Op // OpSend, OpWrite, OpWriteImm, OpRead
	// Size is the wire size in bytes (header + value for SEND).
	Size int
	// Payload travels to the responder (SEND/WRITE*) or names the local
	// destination MR (READ: payload ignored).
	Payload any
	// RemoteMR is the remote region targeted by WRITE/WRITE_IMM/READ.
	RemoteMR int
	// RemoteOff addresses a segment inside the remote region (READ of a
	// segment-addressed MR only; ignored for whole-region operations).
	RemoteOff int64
	// LocalMR receives RDMA READ data.
	LocalMR *MR
	// Imm is delivered with WRITE_IMM.
	Imm uint64
	// Signaled requests a local completion.
	Signaled bool
	// Inline copies the payload at post time: the source buffer is
	// reusable immediately, allowed only for small payloads.
	Inline bool
}

// MaxInline is the largest inline send the simulated HCA accepts.
const MaxInline = 256

// RecvWR is a receive-queue work request.
type RecvWR struct {
	WRID uint64
}

// QP is a reliable-connected queue pair.
type QP struct {
	dev        *Device
	qpn        int
	remoteNode string
	remoteQPN  int
	sendCQ     *CQ
	recvCQ     *CQ
	recvQ      *sim.Queue[RecvWR] // only ever tried, never waited on
	connected  bool

	pendingReads map[uint64]*MR // WRID of each READ in flight → its LocalMR (may be nil)
}

// CreateQP allocates a queue pair bound to the given CQs.
func (d *Device) CreateQP(sendCQ, recvCQ *CQ) *QP {
	d.nextQP++
	qp := &QP{
		dev: d, qpn: d.nextQP,
		sendCQ: sendCQ, recvCQ: recvCQ,
		recvQ:        sim.NewQueue[RecvWR](d.env, 0),
		pendingReads: make(map[uint64]*MR),
	}
	d.qps[qp.qpn] = qp
	return qp
}

// QPN returns the local queue pair number.
func (qp *QP) QPN() int { return qp.qpn }

// Connect transitions both QPs to RTS against each other (out-of-band
// connection management; no simulated cost, as setup is not measured).
func Connect(a, b *QP) {
	a.remoteNode, a.remoteQPN = b.dev.node.Name(), b.qpn
	b.remoteNode, b.remoteQPN = a.dev.node.Name(), a.qpn
	a.connected, b.connected = true, true
}

// PostRecv posts a receive work request (no time cost; pre-posted buffers).
// Replenishment posts one per message consumed for the life of a connection,
// so the queue is the kernel's ring: a slice eaten from the front walks off
// its backing array and reallocates it every few messages.
func (qp *QP) PostRecv(wr RecvWR) { qp.recvQ.TryPut(wr) }

// RecvDepth reports outstanding receive WRs.
func (qp *QP) RecvDepth() int { return qp.recvQ.Len() }

// consumeRecv takes the next posted receive WR, in posting order.
func (qp *QP) consumeRecv() (RecvWR, bool) { return qp.recvQ.TryGet() }

// wire is the fabric payload for verbs traffic.
type wire struct {
	kind      Op
	srcQPN    int
	dstQPN    int
	wrid      uint64 // requester's WRID (for READ responses)
	payload   any
	size      int
	remoteMR  int
	remoteOff int64
	imm       uint64
	signaled  bool
	ackFor    bool // this is a READ response
}

// CorruptCopy implements simnet.Corruptible for verbs traffic: an in-flight
// bit flip lands in what the work request carried, when that payload knows
// how to present itself garbled; the header fields are the link CRC's to
// protect (a corrupt header is a dropped message).
func (w *wire) CorruptCopy() any {
	g := *w
	if c, ok := w.payload.(simnet.Corruptible); ok {
		g.payload = c.CorruptCopy()
	}
	return &g
}

// transfer is one verbs message on the fabric, in a single allocation: the
// wire record the peer's HCA reads and the fabric's Flight that carries it.
// The posting HCA allocates it; the fabric holds it until delivery, the
// receiving Device reads w during the delivery callback and keeps nothing,
// and an Outgoing handed to the poster points into fl. It is never reused.
type transfer struct {
	w  wire
	fl simnet.Flight
}

// PostSend posts a send-queue WR, charging the caller only the doorbell
// cost. The HCA performs the transfer asynchronously.
func (qp *QP) PostSend(p *sim.Proc, wr SendWR) {
	if !qp.connected {
		panic("verbs: PostSend on unconnected QP")
	}
	if wr.Inline && wr.Size > MaxInline {
		panic(fmt.Sprintf("verbs: inline send of %d bytes exceeds MaxInline", wr.Size))
	}
	p.Sleep(doorbellCost)
	qp.start(wr)
}

// PostSendList posts a chain of send-queue WRs under a single doorbell —
// the verbs linked-WR idiom batching multi-GET READ windows: the caller
// pays one MMIO write regardless of chain length, and the HCA walks the
// list asynchronously.
func (qp *QP) PostSendList(p *sim.Proc, wrs []SendWR) {
	if !qp.connected {
		panic("verbs: PostSendList on unconnected QP")
	}
	if len(wrs) == 0 {
		return
	}
	for _, wr := range wrs {
		if wr.Inline && wr.Size > MaxInline {
			panic(fmt.Sprintf("verbs: inline send of %d bytes exceeds MaxInline", wr.Size))
		}
	}
	p.Sleep(doorbellCost)
	for _, wr := range wrs {
		qp.start(wr)
	}
}

// PostSendSetup posts without charging time; for simulation setup.
func (qp *QP) PostSendSetup(wr SendWR) { qp.start(wr) }

func (qp *QP) start(wr SendWR) *simnet.Outgoing {
	d := qp.dev
	switch wr.Op {
	case OpSend:
		d.SendsPosted++
	case OpWrite, OpWriteImm:
		d.WritesPosted++
	case OpRead:
		d.ReadsPosted++
	default:
		panic(fmt.Sprintf("verbs: bad send opcode %d", wr.Op))
	}
	if wr.Op == OpRead {
		// A small request packet travels out; the data comes back on the
		// reverse link driven by the remote HCA, no remote CPU.
		qp.pendingReads[wr.WRID] = wr.LocalMR
		return qp.dev.post(qp.remoteNode, readReqBytes, wire{
			kind: OpRead, srcQPN: qp.qpn, dstQPN: qp.remoteQPN,
			wrid: wr.WRID, remoteMR: wr.RemoteMR, remoteOff: wr.RemoteOff,
			size: wr.Size, signaled: wr.Signaled,
		})
	}
	out := qp.dev.post(qp.remoteNode, wr.Size, wire{
		kind: wr.Op, srcQPN: qp.qpn, dstQPN: qp.remoteQPN,
		wrid: wr.WRID, payload: wr.Payload, size: wr.Size,
		remoteMR: wr.RemoteMR, imm: wr.Imm, signaled: wr.Signaled,
	})
	if wr.Signaled {
		// RC send completion: generated when the ACK returns, i.e. one
		// propagation delay after full delivery.
		env, sendCQ := d.env, qp.sendCQ
		prop := qp.dev.node.Fabric().Spec().PropDelay
		c := Completion{WRID: wr.WRID, Op: wr.Op, QPN: qp.qpn, Bytes: wr.Size}
		env.AfterFunc(0, func() {
			out.Delivered.OnFire(func() {
				env.AfterFunc(prop, func() { sendCQ.push(c) })
			})
		})
	}
	return out
}

// post hands a wire message to the local NIC towards node dst.
func (d *Device) post(dst string, size int, w wire) *simnet.Outgoing {
	t := &transfer{w: w}
	return d.node.PostFlight(&t.fl, dst, size, &t.w)
}

// PostSendReusable is PostSend that additionally returns an event firing
// when the caller's buffers are reusable (DMA has read them out of host
// memory). This is the primitive under memcached_bset/bget.
func (qp *QP) PostSendReusable(p *sim.Proc, wr SendWR) *sim.Event {
	if !qp.connected {
		panic("verbs: PostSendReusable on unconnected QP")
	}
	if wr.Op == OpRead {
		panic("verbs: PostSendReusable does not apply to READ")
	}
	p.Sleep(doorbellCost)
	out := qp.start(wr)
	if wr.Inline && wr.Size <= MaxInline {
		ev := qp.dev.env.NewEvent()
		ev.Fire()
		return ev
	}
	return out.Sent
}

// deliver demultiplexes an arriving fabric message to verbs semantics.
func (d *Device) deliver(m *simnet.Message) {
	w, ok := m.Payload.(*wire)
	if !ok {
		panic("verbs: non-verbs payload on device node")
	}
	qp := d.qps[w.dstQPN]
	if qp == nil {
		panic(fmt.Sprintf("verbs: delivery to unknown QP %d on %s", w.dstQPN, d.node.Name()))
	}
	if w.kind == OpRead && w.ackFor {
		// READ response arriving back at the requester.
		local, ok := qp.pendingReads[w.wrid]
		if !ok {
			panic("verbs: READ response with no pending request")
		}
		delete(qp.pendingReads, w.wrid)
		if local != nil {
			local.SetPayload(w.payload, w.size)
		}
		if w.signaled {
			qp.sendCQ.push(Completion{
				WRID: w.wrid, Op: OpRead, QPN: qp.qpn,
				Bytes: w.size, Payload: w.payload,
			})
		}
		return
	}
	switch w.kind {
	case OpSend:
		rwr, ok := qp.consumeRecv()
		if !ok {
			panic(fmt.Sprintf("verbs: RNR — SEND with no posted RECV on %s qp%d", d.node.Name(), qp.qpn))
		}
		qp.recvCQ.push(Completion{
			WRID: rwr.WRID, Op: OpRecv, QPN: qp.qpn,
			Bytes: w.size, Payload: w.payload,
		})
	case OpWrite:
		mr := d.mrs[w.remoteMR]
		if mr == nil {
			panic(fmt.Sprintf("verbs: WRITE to invalid MR %d on %s", w.remoteMR, d.node.Name()))
		}
		mr.SetPayload(w.payload, w.size)
	case OpWriteImm:
		mr := d.mrs[w.remoteMR]
		if mr == nil {
			panic(fmt.Sprintf("verbs: WRITE_IMM to invalid MR %d on %s", w.remoteMR, d.node.Name()))
		}
		mr.SetPayload(w.payload, w.size)
		rwr, ok := qp.consumeRecv()
		if !ok {
			panic(fmt.Sprintf("verbs: RNR — WRITE_IMM with no posted RECV on %s qp%d", d.node.Name(), qp.qpn))
		}
		qp.recvCQ.push(Completion{
			WRID: rwr.WRID, Op: OpWriteImm, QPN: qp.qpn,
			Bytes: w.size, Payload: w.payload, Imm: w.imm,
		})
	case OpRead:
		// Responder HCA streams the MR contents back; zero remote CPU.
		mr := d.mrs[w.remoteMR]
		if mr == nil {
			panic(fmt.Sprintf("verbs: READ of invalid MR %d on %s", w.remoteMR, d.node.Name()))
		}
		payload, plen := mr.payload, mr.plen
		if mr.segments != nil {
			seg := mr.segments[w.remoteOff]
			payload, plen = seg.v, seg.n
		}
		if w.size > 0 && w.size < plen {
			plen = w.size
		}
		d.post(m.Src, plen, wire{
			kind: OpRead, srcQPN: w.dstQPN, dstQPN: w.srcQPN,
			wrid: w.wrid, payload: payload, size: plen,
			signaled: w.signaled, ackFor: true,
		})
	}
}
