package verbs

import (
	"fmt"

	"hybridkv/internal/sim"
	"hybridkv/internal/simnet"
)

// This file emulates the IP-over-IB path used by default Memcached +
// libmemcached: kernel TCP sockets running over the InfiniBand fabric.
// Messages are delivered in order per connection; Send blocks the caller for
// the kernel copy/segmentation cost and returns once the source buffer is
// reusable (BSD socket semantics). The fabric's IPoIB LinkSpec supplies the
// per-message and per-segment stack costs.

// StreamMsg is one application message on an IPoIB stream.
type StreamMsg struct {
	Size    int
	Payload any
}

// Stream is one direction-pair (full duplex) connection between two nodes.
type Stream struct {
	env    *sim.Env
	local  *Host
	remote *Host
	id     int
	inbox  *sim.Queue[StreamMsg]
	peer   *Stream
}

// Host is the socket endpoint demultiplexer on one node. At most one Host or
// one verbs Device may own a node's receiver.
type Host struct {
	env     *sim.Env
	node    *simnet.Node
	streams map[int]*Stream
	nextID  int
	accept  *sim.Queue[*Stream]
	free    *streamSend // sends whose delivery has fired
}

// NewHost installs a socket stack on node.
func NewHost(node *simnet.Node) *Host {
	h := &Host{
		env:     node.Fabric().Env(),
		node:    node,
		streams: make(map[int]*Stream),
		accept:  sim.NewQueue[*Stream](node.Fabric().Env(), 0),
	}
	node.SetReceiver(h.deliver)
	return h
}

type streamWire struct {
	dstStream int
	msg       StreamMsg
}

// Snapshot implements simnet.Snapshotter for stream traffic, as wire's does.
func (w *streamWire) Snapshot() any {
	payload := snapshot(w.msg.Payload)
	if payload == nil {
		return nil
	}
	g := *w
	g.msg.Payload = payload
	return &g
}

// streamSend is one IPoIB message on the fabric, in a single allocation: the
// stream wire and the Flight that carries it. Like a verbs transfer, it is
// taken from the sending Host's free list and handed back by the fabric after
// its last delivery; the sender holds its Sent event only until Send returns.
type streamSend struct {
	w    streamWire
	fl   simnet.Flight
	host *Host
	next *streamSend // free-list link
}

// Recycle implements simnet.Recycler; a Shared payload loses its sender's
// hold.
func (r *streamSend) Recycle() {
	Release(r.w.msg.Payload)
	r.w = streamWire{}
	r.next, r.host.free = r.host.free, r
}

// Dial opens a connection to the remote host (out-of-band handshake with no
// simulated cost; connection setup is not part of the measured path).
func (h *Host) Dial(remote *Host) *Stream {
	h.nextID++
	local := &Stream{env: h.env, local: h, remote: remote, id: h.nextID,
		inbox: sim.NewQueue[StreamMsg](h.env, 0)}
	h.streams[local.id] = local

	remote.nextID++
	rs := &Stream{env: h.env, local: remote, remote: h, id: remote.nextID,
		inbox: sim.NewQueue[StreamMsg](h.env, 0)}
	remote.streams[rs.id] = rs

	local.peer, rs.peer = rs, local
	remote.accept.TryPut(rs)
	return local
}

// Accept blocks until an inbound connection arrives.
func (h *Host) Accept(p *sim.Proc) *Stream {
	s, _ := h.accept.Get(p)
	return s
}

// Send writes one message to the stream. The caller blocks for the kernel
// stack cost and until the bytes have left the NIC (source buffer reusable),
// per blocking-socket semantics.
func (s *Stream) Send(p *sim.Proc, size int, payload any) {
	h := s.local
	r := h.free
	if r == nil {
		r = &streamSend{host: h}
	} else {
		h.free, r.next = r.next, nil
	}
	r.w = streamWire{dstStream: s.peer.id, msg: StreamMsg{Size: size, Payload: payload}}
	out := h.node.SendFlight(p, &r.fl, r, s.remote.node.Name(), size, &r.w)
	p.Wait(out.Sent)
}

// Recv blocks until a message arrives on the stream.
func (s *Stream) Recv(p *sim.Proc) StreamMsg {
	msg, _ := s.inbox.Get(p)
	return msg
}

// RecvTimeout is Recv bounded by d of virtual time (SO_RCVTIMEO semantics).
// ok=false means nothing arrived before the deadline.
func (s *Stream) RecvTimeout(p *sim.Proc, d sim.Time) (msg StreamMsg, ok bool) {
	return s.inbox.GetTimeout(p, d)
}

func (h *Host) deliver(m *simnet.Message) {
	w := m.Payload.(*streamWire)
	s := h.streams[w.dstStream]
	if s == nil {
		panic(fmt.Sprintf("verbs: delivery to unknown stream %d on %s", w.dstStream, h.node.Name()))
	}
	retain(w.msg.Payload)
	s.inbox.TryPut(w.msg)
}
