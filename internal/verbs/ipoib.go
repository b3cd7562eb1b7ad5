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
func (h *Host) Accept(p *sim.Proc) (*Stream, bool) {
	return h.accept.Get(p)
}

// Send writes one message to the stream. The caller blocks for the kernel
// stack cost and until the bytes have left the NIC (source buffer reusable),
// per blocking-socket semantics.
func (s *Stream) Send(p *sim.Proc, size int, payload any) {
	out := s.local.node.Send(p, s.remote.node.Name(), size, &streamWire{
		dstStream: s.peer.id,
		msg:       StreamMsg{Size: size, Payload: payload},
	})
	p.Wait(out.Sent)
}

// Recv blocks until a message arrives on the stream.
func (s *Stream) Recv(p *sim.Proc) (StreamMsg, bool) {
	return s.inbox.Get(p)
}

// RecvTimeout is Recv bounded by d of virtual time (SO_RCVTIMEO semantics).
// timedOut=true means nothing arrived before the deadline.
func (s *Stream) RecvTimeout(p *sim.Proc, d sim.Time) (msg StreamMsg, ok bool, timedOut bool) {
	return s.inbox.GetTimeout(p, d)
}

func (h *Host) deliver(m *simnet.Message) {
	w, ok := m.Payload.(*streamWire)
	if !ok {
		panic("verbs: non-stream payload on IPoIB host")
	}
	s := h.streams[w.dstStream]
	if s == nil {
		panic(fmt.Sprintf("verbs: delivery to unknown stream %d on %s", w.dstStream, h.node.Name()))
	}
	s.inbox.TryPut(w.msg)
}
