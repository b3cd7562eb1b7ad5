package verbs

import (
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

// Stream is one direction-pair (full duplex) connection between two nodes:
// what it sends is addressed to its peer, the other end's Stream.
type Stream struct {
	local *Host
	inbox *sim.Queue[StreamMsg]
	peer  *Stream
}

// Host is the socket endpoint demultiplexer on one node. At most one Host or
// one verbs Device may own a node's receiver.
type Host struct {
	env    *sim.Env
	node   *simnet.Node
	accept *sim.Queue[*Stream]
	xfers  transfers
}

// NewHost installs a socket stack on node.
func NewHost(node *simnet.Node) *Host {
	h := &Host{
		env:    node.Fabric().Env(),
		node:   node,
		accept: sim.NewQueue[*Stream](node.Fabric().Env(), 0),
	}
	node.SetReceiver(h.deliver)
	return h
}

// Dial opens a connection to the remote host (out-of-band handshake with no
// simulated cost; connection setup is not part of the measured path).
func (h *Host) Dial(remote *Host) *Stream {
	local := &Stream{local: h, inbox: sim.NewQueue[StreamMsg](h.env, 0)}
	rs := &Stream{local: remote, inbox: sim.NewQueue[StreamMsg](h.env, 0)}
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
	t := h.xfers.take(wire{kind: OpSend, stream: s.peer, payload: payload, size: size})
	out := h.node.SendFlight(p, &t.fl, t, s.peer.local.node, size, &t.w)
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
	w := m.Payload.(*wire)
	retain(w.payload)
	w.stream.inbox.TryPut(StreamMsg{Size: w.size, Payload: w.payload})
}
