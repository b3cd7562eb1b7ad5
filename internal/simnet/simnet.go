// Package simnet models a cluster interconnect fabric under the sim kernel.
//
// The fabric is a set of named nodes joined by a non-blocking switch with
// full bisection bandwidth (the topology of SDSC Comet's rack-level fabric,
// which the paper's experiments fit inside). Each node has one NIC; the
// endpoint link is the only contended resource. A message transfer costs:
//
//	caller CPU   : SendCPU + ceil(size/SegSize)·SegCPU   (blocks the sender)
//	serialization: size / BytesPerSec                     (occupies the TX link)
//	propagation  : PropDelay                              (wire + switch)
//	receiver CPU : RecvCPU                                (delays delivery)
//
// Two LinkSpec presets are provided: FDR InfiniBand for native RDMA verbs
// and IP-over-IB for the kernel TCP/IP path. The verbs package builds both
// transports on this fabric.
package simnet

import (
	"fmt"

	"hybridkv/internal/sim"
)

// LinkSpec is the first-order cost model of one transport over the fabric.
type LinkSpec struct {
	// PropDelay is the one-way wire + switch propagation latency.
	PropDelay sim.Time
	// BytesPerSec is the effective link bandwidth for payload bytes.
	BytesPerSec int64
	// SendCPU is the fixed caller-side cost to hand a message to the NIC
	// (doorbell write for RDMA; syscall + socket locking for IPoIB).
	SendCPU sim.Time
	// SegSize is the segmentation unit; 0 disables per-segment costs.
	SegSize int
	// SegCPU is the caller-side cost per segment (kernel copy + header
	// build for the TCP path).
	SegCPU sim.Time
	// RecvCPU is the receiver-side per-message cost (interrupt + stack
	// traversal) added before delivery.
	RecvCPU sim.Time
}

// FDRInfiniBand models a 56 Gb/s FDR HCA driven by native verbs: ~1.2 µs
// small-message latency and ~6 GB/s payload bandwidth (PCIe Gen3 limited).
func FDRInfiniBand() LinkSpec {
	return LinkSpec{
		PropDelay:   1200 * sim.Nanosecond,
		BytesPerSec: 6_000_000_000,
		SendCPU:     200 * sim.Nanosecond,
		SegSize:     0,
		SegCPU:      0,
		RecvCPU:     150 * sim.Nanosecond,
	}
}

// IPoIB models TCP/IP over the same FDR fabric: kernel stack on both sides,
// 64 KB segmentation, and much lower effective bandwidth (~2 GB/s).
func IPoIB() LinkSpec {
	return LinkSpec{
		PropDelay:   1200 * sim.Nanosecond,
		BytesPerSec: 2_000_000_000,
		SendCPU:     8 * sim.Microsecond,
		SegSize:     64 * 1024,
		SegCPU:      2 * sim.Microsecond,
		RecvCPU:     8 * sim.Microsecond,
	}
}

// SendCost returns the caller-side CPU cost to hand a size-byte message to
// the NIC under this spec.
func (s LinkSpec) SendCost(size int) sim.Time {
	c := s.SendCPU
	if s.SegSize > 0 && size > 0 {
		segs := (size + s.SegSize - 1) / s.SegSize
		c += sim.Time(segs) * s.SegCPU
	}
	return c
}

// SerializeTime returns how long size bytes occupy the TX link.
func (s LinkSpec) SerializeTime(size int) sim.Time {
	if s.BytesPerSec <= 0 || size <= 0 {
		return 0
	}
	return sim.Time(float64(size) / float64(s.BytesPerSec) * float64(sim.Second))
}

// Message is one fabric transfer. Payload is opaque to the fabric.
type Message struct {
	Src, Dst string
	Size     int
	Payload  any
}

// Outgoing tracks the lifecycle of a message handed to the NIC.
type Outgoing struct {
	// Sent fires when the message has fully left the sender's NIC — the
	// source buffer is reusable from this point.
	Sent *sim.Event
	// Delivered fires when the receiver has been handed the message.
	Delivered *sim.Event
}

// Verdict is a fault injector's decision about one message.
type Verdict struct {
	// Drop loses the message after serialization: the sender's Sent event
	// still fires (it cannot tell), but no delivery happens.
	Drop bool
	// Duplicate delivers the message a second time shortly after the first.
	Duplicate bool
	// ExtraDelay postpones delivery beyond normal propagation (a latency
	// spike).
	ExtraDelay sim.Time
	// Corrupt flips bits in the payload in flight: a Corruptible payload
	// is delivered as its CorruptCopy; other payloads deliver intact (their
	// transports checksum-and-drop below this layer).
	Corrupt bool
}

// FaultInjector is consulted once per message at serialization end.
// internal/fault provides the standard seeded implementation.
type FaultInjector interface {
	Transmit(src, dst string, size int, now sim.Time) Verdict
}

// Corruptible is a payload that knows how to present itself bit-flipped:
// the fabric delivers CorruptCopy's result in place of the original when
// the injector's verdict says Corrupt. Payloads that don't implement it
// are delivered intact — corrupting a message the receiver would CRC-drop
// anyway is indistinguishable from Drop, which the injector already models.
type Corruptible interface {
	CorruptCopy() any
}

// Fabric is the switch plus its attached nodes.
type Fabric struct {
	env    *sim.Env
	spec   LinkSpec
	nodes  map[string]*Node
	faults FaultInjector

	// Stats
	MsgCount  int64
	ByteCount int64
	// Dropped counts messages lost to fault injection (random drops plus
	// link-down windows).
	Dropped int64
	// Corrupted counts payloads delivered bit-flipped by fault injection.
	Corrupted int64
}

// New creates a fabric on env with the given default link spec.
func New(env *sim.Env, spec LinkSpec) *Fabric {
	return &Fabric{env: env, spec: spec, nodes: make(map[string]*Node)}
}

// Env returns the simulation environment.
func (f *Fabric) Env() *sim.Env { return f.env }

// Spec returns the fabric's link spec.
func (f *Fabric) Spec() LinkSpec { return f.spec }

// SetFaults installs (or, with nil, removes) a fault injector. Safe to call
// between phases of a run; it affects messages serialized from then on.
func (f *Fabric) SetFaults(fi FaultInjector) { f.faults = fi }

// AddNode attaches a new node to the fabric. Node names must be unique.
func (f *Fabric) AddNode(name string) *Node {
	if _, dup := f.nodes[name]; dup {
		panic(fmt.Sprintf("simnet: duplicate node %q", name))
	}
	n := &Node{fabric: f, name: name}
	n.tx = sim.NewQueue[*Flight](f.env, 0)
	f.nodes[name] = n
	f.env.Spawn("nic-tx:"+name, n.txEngine)
	return n
}

// Flight is everything one message needs from Post to delivery, in a single
// allocation: the message, the sender's handle on it with both its events,
// and where and what to deliver. It is also the delivery callback event
// itself (Fire), so scheduling a delivery allocates nothing.
//
// A transport that has a record of its own per message embeds a Flight in it
// and posts with PostFlight, making the two one object. A Flight carries one
// message, once: the fabric holds it from PostFlight until its last delivery
// has fired, the sender's Outgoing points into it, and the receiver is handed
// a pointer to the Message inside it — so it must not be posted again.
type Flight struct {
	msg       Message
	out       Outgoing
	sent      sim.Event
	delivered sim.Event
	dst       *Node
	arriving  *Message // msg, or its bit-flipped copy
}

// Fire is the delivery callback event: the receiver NIC hands the message
// up.
func (fl *Flight) Fire() {
	dst, m := fl.dst, fl.arriving
	dst.RxBytes += int64(m.Size)
	dst.RxMsgs++
	fl.delivered.Fire()
	if dst.receiver != nil {
		dst.receiver(m)
	}
}

// Node is one host with a single NIC attached to the fabric.
type Node struct {
	fabric   *Fabric
	name     string
	tx       *sim.Queue[*Flight]
	receiver func(m *Message)

	// Stats
	TxBytes, RxBytes int64
	TxMsgs, RxMsgs   int64
}

// Name returns the node name.
func (n *Node) Name() string { return n.name }

// Fabric returns the owning fabric.
func (n *Node) Fabric() *Fabric { return n.fabric }

// SetReceiver installs the delivery callback. It runs inside the delivery
// callback event, in the scheduler's goroutine, so it must not block: queue
// the message or spawn a process for anything that waits.
func (n *Node) SetReceiver(fn func(m *Message)) { n.receiver = fn }

// txEngine drains the NIC transmit queue, charging serialization time per
// message and scheduling remote delivery.
func (n *Node) txEngine(p *sim.Proc) {
	f := n.fabric
	for {
		fl, ok := n.tx.Get(p)
		if !ok {
			return
		}
		msg := &fl.msg
		p.Sleep(f.spec.SerializeTime(msg.Size))
		fl.sent.Fire()
		n.TxBytes += int64(msg.Size)
		n.TxMsgs++
		f.MsgCount++
		f.ByteCount += int64(msg.Size)
		fl.dst = f.nodes[msg.Dst]
		if fl.dst == nil {
			panic(fmt.Sprintf("simnet: send to unknown node %q", msg.Dst))
		}
		deliverAt := p.Now() + f.spec.PropDelay + f.spec.RecvCPU
		fl.arriving = msg
		copies := 1
		if f.faults != nil {
			v := f.faults.Transmit(msg.Src, msg.Dst, msg.Size, p.Now())
			if v.Drop {
				f.Dropped++
				continue
			}
			deliverAt += v.ExtraDelay
			if v.Duplicate {
				copies = 2
			}
			if v.Corrupt {
				if c, ok := msg.Payload.(Corruptible); ok {
					cm := *msg
					cm.Payload = c.CorruptCopy()
					fl.arriving = &cm
					f.Corrupted++
				}
			}
		}
		for i := 0; i < copies; i++ {
			// A duplicate trails the original by one receiver-CPU slot.
			f.env.AtCall(deliverAt+sim.Time(i)*f.spec.RecvCPU, fl)
		}
	}
}

// Post hands a message to the NIC without charging caller CPU time (the
// caller models its own cost, e.g. the verbs layer charging doorbell cost).
func (n *Node) Post(dst string, size int, payload any) *Outgoing {
	return n.PostFlight(new(Flight), dst, size, payload)
}

// PostFlight is Post carried by fl, a zero Flight the caller allocated —
// normally as part of the record payload points into.
func (n *Node) PostFlight(fl *Flight, dst string, size int, payload any) *Outgoing {
	fl.msg = Message{Src: n.name, Dst: dst, Size: size, Payload: payload}
	fl.sent.Init(n.fabric.env)
	fl.delivered.Init(n.fabric.env)
	fl.out = Outgoing{Sent: &fl.sent, Delivered: &fl.delivered}
	n.tx.TryPut(fl) // unbounded queue: always succeeds
	return &fl.out
}

// Send charges the caller the host-side CPU cost, then posts the message.
func (n *Node) Send(p *sim.Proc, dst string, size int, payload any) *Outgoing {
	p.Sleep(n.fabric.spec.SendCost(size))
	return n.Post(dst, size, payload)
}
