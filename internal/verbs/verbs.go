// Package verbs provides an ibverbs-shaped RDMA interface over the simnet
// fabric, plus an IP-over-IB stream emulation for the default Memcached
// path.
//
// The client and server runtimes in this repository are written against this
// API the same way RDMA-Memcached is written against libibverbs: protection
// domains, memory regions registered at set-up, reliable-connected queue
// pairs, completion queues that are polled, two-sided SEND/RECV and one-sided
// RDMA WRITE-with-immediate and READ. Only the wire underneath is simulated,
// and only what the client, server and replicator post is modeled:
//
//   - SEND consumes a pre-posted RECV at the responder and generates a
//     completion on the responder's receive CQ. The requester learns that
//     its source buffer is reusable from PostSend's event, when the NIC has
//     read the message out of host memory.
//   - WRITE_IMM names a remote MR, consumes a RECV and completes on the
//     responder's receive CQ with the payload: no remote CPU moves it, and
//     the completion is all the responder reads of it.
//   - A signaled RDMA READ fetches a segment of the remote MR — what the
//     responder last published at that offset — with no remote CPU
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
	mrs    map[int]*MR
	nextMR int
	xfers  transfers

	// Stats
	SendsPosted, WritesPosted, ReadsPosted int64
}

// OpenDevice attaches an HCA to node and installs its packet demultiplexer.
func OpenDevice(node *simnet.Node) *Device {
	d := &Device{
		env:  node.Fabric().Env(),
		node: node,
		mrs:  make(map[int]*MR),
	}
	node.SetReceiver(d.deliver)
	return d
}

// PD is a protection domain.
type PD struct{ dev *Device }

// AllocPD allocates a protection domain (free in sim time, as in practice).
func (d *Device) AllocPD() *PD { return &PD{dev: d} }

// MR is a registered memory region. Its contents are modeled as segments:
// values its owner publishes at byte offsets (SetSegment), which an RDMA READ
// carrying the offset fetches; an offset where nothing is published reads
// empty. A segment holds a Shared value — a server's published bucket or
// value — for as long as the value is the segment's. A region registered as
// an array (the directory's bucket array) keeps its fixed-size segments in a
// slice indexed by offset/stride; any other (the value arena, whose offsets
// grow and are never reused) keeps an offset map.
type MR struct {
	lkey     int
	size     int
	stride   int64 // > 0: an array region, whose segments are slots
	slots    []any // slots[i] is the segment at i*stride, nil when empty
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

// RegisterArrayMRSetup registers, with no time charge, a region that is an
// array of size/stride segments of stride bytes each, at the multiples of
// stride: it is segment-addressed from the start, every segment empty. An
// offset off the stride or past the end, or a segment of another length,
// panics.
func (pd *PD) RegisterArrayMRSetup(size, stride int) *MR {
	if stride <= 0 || size%stride != 0 {
		panic(fmt.Sprintf("verbs: MR size %d is not a whole number of %d-byte segments", size, stride))
	}
	mr := pd.RegisterMRSetup(size)
	mr.stride, mr.slots = int64(stride), make([]any, size/stride)
	return mr
}

// slot returns the index of an array region's segment at off.
func (mr *MR) slot(off int64) int64 {
	i := off / mr.stride
	if off < 0 || off%mr.stride != 0 || i >= int64(len(mr.slots)) {
		panic(fmt.Sprintf("verbs: offset %d is not a segment of a %d-byte MR of %d-byte segments", off, mr.size, mr.stride))
	}
	return i
}

// LKey returns the region's local key (also used as its remote key).
func (mr *MR) LKey() int { return mr.lkey }

// SetSegment stores contents at a byte offset inside the region, making it
// addressable by RDMA READs carrying that offset: the segment takes a hold
// on v and gives back its hold on the value it had. Offsets are opaque to
// the HCA model (an array region's are its stride's multiples); the caller
// owns the allocation discipline.
func (mr *MR) SetSegment(off int64, v any, n int) {
	if off < 0 || off+int64(n) > int64(mr.size) {
		panic(fmt.Sprintf("verbs: segment [%d,%d) exceeds MR size %d", off, off+int64(n), mr.size))
	}
	if mr.stride > 0 && int64(n) != mr.stride {
		panic(fmt.Sprintf("verbs: a segment of %d bytes in an MR of %d-byte segments", n, mr.stride))
	}
	old := mr.swap(off, mrSegment{v: v, n: n})
	retain(v)
	Release(old)
}

// ClearSegment removes the segment at off, giving back its hold on its
// value; READs of it then return empty.
func (mr *MR) ClearSegment(off int64) { Release(mr.swap(off, mrSegment{})) }

// swap puts seg at off, an empty one taking the offset out of the map, and
// returns the value it replaces; it takes and gives back no hold.
func (mr *MR) swap(off int64, seg mrSegment) (old any) {
	if mr.stride > 0 {
		s := &mr.slots[mr.slot(off)]
		old, *s = *s, seg.v
		return old
	}
	old = mr.segments[off].v
	if seg.v == nil && seg.n == 0 {
		delete(mr.segments, off)
		return old
	}
	if mr.segments == nil {
		mr.segments = make(map[int64]mrSegment)
	}
	mr.segments[off] = seg
	return old
}

// FillSegments stores v at every segment of an array region, at its full
// length, as SetSegment at each offset in turn would: each segment takes a
// hold on v and gives back its hold on the value it had.
func (mr *MR) FillSegments(v any) {
	if mr.stride == 0 {
		panic("verbs: FillSegments on an MR that is not an array of segments")
	}
	for i, old := range mr.slots {
		mr.slots[i] = v
		retain(v)
		Release(old)
	}
}

// ClearSegments drops every segment, giving back their holds: READs then
// return empty.
func (mr *MR) ClearSegments() {
	if mr.stride > 0 {
		for _, v := range mr.slots {
			Release(v)
		}
		clear(mr.slots)
		return
	}
	for _, seg := range mr.segments { // order-free: each value gets its one release
		Release(seg.v)
	}
	clear(mr.segments)
}

// Segment returns the local contents at off (zero value if absent).
func (mr *MR) Segment(off int64) (any, int) {
	if mr.stride > 0 {
		if v := mr.slots[mr.slot(off)]; v != nil {
			return v, int(mr.stride)
		}
		return nil, 0
	}
	seg := mr.segments[off]
	return seg.v, seg.n
}

// Completion is one CQ entry: a READ's on the send CQ (WRID names it), or a
// consumed RECV's on the receive CQ. QP is the local queue pair it belongs
// to: the one the READ was posted on, or the one that took the message.
type Completion struct {
	WRID    uint64
	QP      *QP
	Payload any
}

// CQ is a completion queue. Its consumer polls it from a process (Poll,
// WaitPoll), or hands it a completion handler (OnCompletion) that consumes
// every completion in a callback event, with no process to resume.
type CQ struct {
	dev *Device
	q   *sim.Queue[Completion]
	// handler consumes every completion, once OnCompletion has set it;
	// draining is set while the callback that will run it is scheduled or
	// running.
	handler  func(Completion)
	draining bool
}

// CreateCQ allocates a completion queue. A CQ is unbounded — the simulated
// HCA never overruns; overrun modeling is out of scope — so depth must be
// ≤ 0, and a positive one panics (sim.NewQueue).
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

// OnCompletion makes h the CQ's one consumer, in place of a process that
// polls it in a loop: h must not block, and nothing else polls the CQ. A
// completion that finds the CQ idle schedules one callback event at the
// current time, in the (at, seq) slot the parked poller's wakeup would have
// taken; it drains the CQ into h in order, those that arrived before it runs
// and those h's own work adds included, as the poller drained them in one
// resume.
func (cq *CQ) OnCompletion(h func(Completion)) { cq.handler = h }

func (cq *CQ) push(c Completion) {
	cq.q.TryPut(c)
	if cq.handler != nil && !cq.draining {
		cq.draining = true
		cq.dev.env.AtCall(cq.dev.env.Now(), (*cqDrain)(cq))
	}
}

// cqDrain is a CQ as the callback event that drains it into its handler.
type cqDrain CQ

func (d *cqDrain) Fire() {
	cq := (*CQ)(d)
	for c, ok := cq.q.TryGet(); ok; c, ok = cq.q.TryGet() {
		cq.handler(c)
	}
	cq.draining = false
}

// SendWR is a send-queue work request.
type SendWR struct {
	// WRID names a READ's completion.
	WRID uint64
	Op   Op // OpSend, OpWriteImm, OpRead
	// Size is the wire size in bytes (header + value for SEND).
	Size int
	// Payload travels to the responder (SEND/WRITE_IMM; ignored for READ).
	Payload any
	// RemoteMR is the remote region targeted by WRITE_IMM/READ.
	RemoteMR int
	// RemoteOff addresses the segment of the remote region a READ fetches.
	RemoteOff int64
	// LocalMR, when set, is the region a READ's data lands in: the data
	// the READ returns must fit it. The data itself reaches the reader on
	// the completion.
	LocalMR *MR
	// Signaled asks for a READ's local completion.
	Signaled bool
}

// RecvWR is a receive-queue work request. Every posted receive is alike, so
// it carries nothing: a QP's receive queue is its depth.
type RecvWR struct{}

// QP is a reliable-connected queue pair. Connect links it to its peer, which
// every message it posts is addressed to.
type QP struct {
	dev    *Device
	remote *QP // the connected peer; nil until Connect
	sendCQ *CQ
	recvCQ *CQ
	recvs  int // posted receives not yet consumed

	pendingReads map[uint64]*MR // WRID of each READ in flight → its LocalMR (may be nil)
}

// CreateQP allocates a queue pair bound to the given CQs.
func (d *Device) CreateQP(sendCQ, recvCQ *CQ) *QP {
	return &QP{
		dev: d, sendCQ: sendCQ, recvCQ: recvCQ,
		pendingReads: make(map[uint64]*MR),
	}
}

// Connect transitions both QPs to RTS against each other (out-of-band
// connection management; no simulated cost, as setup is not measured).
func Connect(a, b *QP) { a.remote, b.remote = b, a }

// PostRecv posts a receive work request (no time cost; pre-posted buffers).
func (qp *QP) PostRecv(RecvWR) { qp.recvs++ }

// RecvDepth reports outstanding receive WRs.
func (qp *QP) RecvDepth() int { return qp.recvs }

// consumeRecv takes one posted receive for an arriving op: with none posted
// the RC QP would answer RNR, which no runtime here ever provokes.
func (qp *QP) consumeRecv(op string) {
	if qp.recvs == 0 {
		panic(fmt.Sprintf("verbs: RNR — %s with no posted RECV on a QP of %s", op, qp.dev.node.Name()))
	}
	qp.recvs--
}

// wire is the fabric payload: a verbs message addressed to the QP that
// receives it, or an IPoIB message, a SEND addressed to the stream that
// receives it.
type wire struct {
	kind      Op
	qp        *QP     // the receiving QP (verbs)
	stream    *Stream // the receiving stream (IPoIB)
	wrid      uint64  // requester's WRID (READ and its response)
	payload   any
	size      int
	remoteMR  int
	remoteOff int64
	signaled  bool
	ackFor    bool // this is a READ response
}

// CorruptCopy implements simnet.Corruptible: an in-flight bit flip lands in
// what the work request carried, when that payload knows how to present
// itself garbled; the header fields are the link CRC's to protect (a corrupt
// header is a dropped message).
func (w *wire) CorruptCopy() any {
	g := *w
	if c, ok := w.payload.(simnet.Corruptible); ok {
		g.payload = c.CorruptCopy()
	}
	return &g
}

// Snapshot implements simnet.Snapshotter: a duplicated SEND carries a copy
// of what the work request carried, when that payload copies itself (a
// request in its sender's request record); anything else is delivered twice
// as it is.
func (w *wire) Snapshot() any {
	s, ok := w.payload.(simnet.Snapshotter)
	if !ok {
		return nil
	}
	payload := s.Snapshot()
	if payload == nil {
		return nil
	}
	g := *w
	g.payload = payload
	return &g
}

// transfer is one message on the fabric — a verbs work request's or an IPoIB
// stream's — in a single allocation: the wire record the peer reads and the
// fabric's Flight that carries it. The sending Device or Host takes it from
// its free list (transfers.take); the fabric holds it until its last delivery
// has fired, the receiver reads w during the delivery callback and copies out
// what it keeps, and the Flight then hands it back (Recycle) for the sender's
// next message. An Outgoing handed to the poster points into fl, so it is
// valid until delivery (see simnet.Flight).
type transfer struct {
	w    wire
	fl   simnet.Flight
	home *transfers // the free list it goes back on
	next *transfer  // free-list link
}

// transfers is a sender's free list of transfers whose last delivery has
// fired.
type transfers struct{ free *transfer }

// take returns a transfer off the list, or a new one, carrying w.
func (l *transfers) take(w wire) *transfer {
	t := l.free
	if t == nil {
		t = &transfer{home: l}
	} else {
		l.free, t.next = t.next, nil
	}
	t.w = w
	return t
}

// Shared is a payload with counted holders — a server's pooled reply
// (protocol.Response) or a published directory bucket or value
// (protocol.DirBucket, protocol.DirSegment). Every message that carries one
// holds it until its last delivery has fired, when the transfer is recycled:
// a SEND or WRITE_IMM its sender's hold, a READ response the hold the READ
// took when it captured the segment. Each delivery that completes — a SEND,
// a WRITE_IMM, a signaled READ — adds a hold for the completion's reader, who
// releases it once it has read it.
type Shared interface {
	Retain()
	Release()
}

// retain adds a hold on a payload that counts them.
func retain(payload any) {
	if s, ok := payload.(Shared); ok {
		s.Retain()
	}
}

// Release drops a hold on payload when it counts them (Shared): a
// completion's reader calls it once it has read the payload. Any other
// payload is left to the GC.
func Release(payload any) {
	if s, ok := payload.(Shared); ok {
		s.Release()
	}
}

// Recycle implements simnet.Recycler: t goes back on its sender's free list,
// holding no payload — a Shared one loses the message's hold.
func (t *transfer) Recycle() {
	Release(t.w.payload)
	t.w = wire{}
	t.next, t.home.free = t.home.free, t
}

// PostSend posts a send-queue WR, charging the caller only the doorbell
// cost. The HCA performs the transfer asynchronously. The returned event
// fires when the caller's buffers are reusable (DMA has read them out of host
// memory; for a READ, when its request has left): the primitive under
// memcached_bset/bget. It lives in the message's transfer, which the HCA
// reuses after delivery: it is valid until then, so a caller that wants it
// waits on it at once.
func (qp *QP) PostSend(p *sim.Proc, wr SendWR) *sim.Event {
	if qp.remote == nil {
		panic("verbs: PostSend on unconnected QP")
	}
	p.Sleep(doorbellCost)
	return qp.start(wr).Sent
}

// PostSendList posts a chain of send-queue WRs under a single doorbell —
// the verbs linked-WR idiom batching multi-GET READ windows: the caller
// pays one MMIO write regardless of chain length, and the HCA walks the
// list asynchronously.
func (qp *QP) PostSendList(p *sim.Proc, wrs []SendWR) {
	if qp.remote == nil {
		panic("verbs: PostSendList on unconnected QP")
	}
	if len(wrs) == 0 {
		return
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
	case OpWriteImm:
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
		return qp.dev.post(qp.remote, readReqBytes, wire{
			kind: OpRead, wrid: wr.WRID, remoteMR: wr.RemoteMR, remoteOff: wr.RemoteOff,
			size: wr.Size, signaled: wr.Signaled,
		})
	}
	return qp.dev.post(qp.remote, wr.Size, wire{
		kind: wr.Op, payload: wr.Payload, size: wr.Size, remoteMR: wr.RemoteMR,
	})
}

// post hands a wire message, addressed to QP dst, to the local NIC.
func (d *Device) post(dst *QP, size int, w wire) *simnet.Outgoing {
	w.qp = dst
	t := d.xfers.take(w)
	return d.node.PostFlight(&t.fl, t, dst.dev.node, size, &t.w)
}

// deliver demultiplexes an arriving fabric message to verbs semantics.
func (d *Device) deliver(m *simnet.Message) {
	w, ok := m.Payload.(*wire)
	if !ok {
		panic("verbs: non-verbs payload on device node")
	}
	qp := w.qp
	if w.kind == OpRead && w.ackFor {
		// READ response arriving back at the requester. One whose READ has
		// completed already — a duplicated response, or the answer to a
		// duplicated request — is dropped, as an RC requester drops a
		// response whose PSN it has passed: a READ completes once.
		local, ok := qp.pendingReads[w.wrid]
		if !ok {
			return
		}
		delete(qp.pendingReads, w.wrid)
		if local != nil && w.size > local.size {
			panic(fmt.Sprintf("verbs: READ response of %d bytes exceeds local MR size %d", w.size, local.size))
		}
		if w.signaled {
			retain(w.payload)
			qp.sendCQ.push(Completion{WRID: w.wrid, QP: qp, Payload: w.payload})
		}
		return
	}
	switch w.kind {
	case OpSend:
		qp.consumeRecv("SEND")
		retain(w.payload)
		qp.recvCQ.push(Completion{QP: qp, Payload: w.payload})
	case OpWriteImm:
		if d.mrs[w.remoteMR] == nil {
			panic(fmt.Sprintf("verbs: WRITE_IMM to invalid MR %d on %s", w.remoteMR, d.node.Name()))
		}
		qp.consumeRecv("WRITE_IMM")
		retain(w.payload)
		qp.recvCQ.push(Completion{QP: qp, Payload: w.payload})
	case OpRead:
		// Responder HCA sends the segment back; zero remote CPU. The
		// response holds what it captured, so a later SetSegment or
		// ClearSegment of the offset leaves this READ its snapshot.
		mr := d.mrs[w.remoteMR]
		if mr == nil {
			panic(fmt.Sprintf("verbs: READ of invalid MR %d on %s", w.remoteMR, d.node.Name()))
		}
		payload, plen := mr.Segment(w.remoteOff)
		if w.size > 0 && w.size < plen {
			plen = w.size
		}
		retain(payload)
		d.post(qp.remote, plen, wire{
			kind: OpRead, wrid: w.wrid, payload: payload, size: plen,
			signaled: w.signaled, ackFor: true,
		})
	}
}
