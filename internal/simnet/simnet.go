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

// PropDelay is the one-way wire + switch propagation latency, the same for
// both transports: they share one FDR fabric.
const PropDelay = 1200 * sim.Nanosecond

// LinkSpec is the first-order cost model of one transport over the fabric.
type LinkSpec struct {
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
	return sim.TransferTime(size, s.BytesPerSec)
}

// Message is one fabric transfer. Payload is opaque to the fabric.
type Message struct {
	Src, Dst string
	Size     int
	Payload  any
}

// Outgoing tracks the lifecycle of a message handed to the NIC. It lives in
// the message's Flight, so when that Flight has an owner it is valid only
// until the message's delivery or its drop (see Flight).
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

// Snapshotter is a payload that points into memory its sender may reuse once
// the receiver has answered it — a request message kept in its sender's
// request record. When the message is duplicated, each delivery carries a
// Snapshot of its own: the bytes as they were serialized, since the sender
// reuses its memory after the first answer, knowing of no second copy.
// Snapshot returns nil when the payload may be delivered twice as it is.
type Snapshotter interface {
	Snapshot() any
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

// SetFaults installs (or, with nil, removes) a fault injector. Safe to call
// between phases of a run; it affects messages serialized from then on.
func (f *Fabric) SetFaults(fi FaultInjector) { f.faults = fi }

// AddNode attaches a new node to the fabric. Node names must be unique.
func (f *Fabric) AddNode(name string) *Node {
	if _, dup := f.nodes[name]; dup {
		panic(fmt.Sprintf("simnet: duplicate node %q", name))
	}
	n := &Node{fabric: f, name: name, tx: nicTx{f: f}}
	f.nodes[name] = n
	return n
}

// Flight is everything one message needs from Post to delivery, in a single
// allocation: the message, the sender's handle on it with both its events,
// its link in the NIC's transmit queue, and where and what to deliver. It is
// also the delivery callback event itself (Fire), so scheduling a delivery
// allocates nothing.
//
// A transport that has a record of its own per message embeds a Flight in it
// and posts with PostFlight, making the two one object. The fabric holds a
// posted Flight — in the tx queue, then on the scheduler heap — until its last
// delivery has fired; the receiver is handed a pointer to the Message inside
// it, valid only while its receiver callback runs. The sender's Outgoing
// points into it too, so Sent and Delivered are valid until delivery: the
// poster waits on Sent at once or not at all, and nobody waits on an owned
// Flight's Delivered, which a drop leaves unfired for the Flight's next
// message to fire. A poster parked on Sent is safe when a drop hands the
// Flight back at that instant and it is posted again: Sent's Fire has taken
// the poster's wakeup off the event already, and a woken process never looks
// at its event again (sim.Proc.Wait parks once).
//
// A Flight posted with no owner carries one message, once. One posted with an
// owner (a Recycler) is handed back to it after its last delivery — the
// first, or the second of a duplicate — or, dropped, at its serialization
// end, and may then be posted again. Posting a Flight that is still in flight
// panics, and so does firing one whose last delivery has fired.
type Flight struct {
	msg       Message
	out       Outgoing
	sent      sim.Event
	delivered sim.Event
	dst       *Node
	arriving  *Message // msg, or its bit-flipped copy
	owner     Recycler
	owed      int     // deliveries still to fire; nonzero from PostFlight on
	queued    *Flight // the next Flight in the sender NIC's transmit queue
}

// Recycler is the owner of a Flight that carries many messages: the record
// the Flight is embedded in, which knows the free list it belongs on. The
// fabric calls Recycle once the Flight's last delivery has fired, or once a
// dropped one's Sent has. Recycle
// clears what the message referenced, so a free list keeps no dead value
// reachable.
type Recycler interface {
	Recycle()
}

// Fire is the delivery callback event: the receiver NIC hands the message
// up. After the last delivery the Flight goes back to its owner.
func (fl *Flight) Fire() {
	if fl.owed <= 0 {
		panic("simnet: Flight fired after its last delivery")
	}
	dst, m := fl.dst, fl.arriving
	fl.delivered.Fire()
	if dst.receiver != nil {
		dst.receiver(m)
	}
	if fl.owed--; fl.owed == 0 {
		fl.arriving = nil
		if fl.owner != nil {
			fl.owner.Recycle()
		}
	}
}

// Node is one host with a single NIC attached to the fabric.
type Node struct {
	fabric   *Fabric
	name     string
	tx       nicTx
	receiver func(m *Message)
}

// Name returns the node name.
func (n *Node) Name() string { return n.name }

// Fabric returns the owning fabric.
func (n *Node) Fabric() *Fabric { return n.fabric }

// SetReceiver installs the delivery callback. It runs inside the delivery
// callback event, in the scheduler's goroutine, so it must not block: queue
// the message or spawn a process for anything that waits. m is the fabric's
// until the callback returns (its Flight may carry another message next), so
// the receiver copies out whatever it keeps.
func (n *Node) SetReceiver(fn func(m *Message)) { n.receiver = fn }

// nicTx is a node's NIC transmit engine: a FIFO of posted Flights, linked
// through their queued fields, serialized one at a time. It is a chain of
// callback events, not a process (DESIGN §16): a post to an idle NIC kicks it
// at the instant of the post, in the slot a parked engine's wakeup would take;
// each firing finishes the Flight whose serialization just ended, if any, and
// starts the next one, due when its serialization ends, or leaves the NIC
// idle.
type nicTx struct {
	f          *Fabric
	head, tail *Flight // queued, oldest first
	cur        *Flight // on the wire; nil while idle or kicked
	busy       bool    // a firing is scheduled: the next post only queues
}

// post queues fl and kicks an idle NIC.
func (tx *nicTx) post(fl *Flight) {
	if tx.tail == nil {
		tx.head = fl
	} else {
		tx.tail.queued = fl
	}
	tx.tail = fl
	if !tx.busy {
		tx.busy = true
		tx.f.env.AtCall(tx.f.env.Now(), tx)
	}
}

// Fire finishes the Flight on the wire and starts the next queued one.
func (tx *nicTx) Fire() {
	f := tx.f
	if fl := tx.cur; fl != nil {
		f.transmitted(fl)
	}
	fl := tx.head
	tx.cur = fl
	if fl == nil {
		tx.busy = false
		return
	}
	if tx.head = fl.queued; tx.head == nil {
		tx.tail = nil
	}
	fl.queued = nil
	f.env.AtCall(f.env.Now()+f.spec.SerializeTime(fl.msg.Size), tx)
}

// transmitted is a message's serialization end: Sent fires, the fault
// injector rules on it, and its deliveries are scheduled.
func (f *Fabric) transmitted(fl *Flight) {
	msg := &fl.msg
	now := f.env.Now()
	fl.sent.Fire()
	f.MsgCount++
	f.ByteCount += int64(msg.Size)
	deliverAt := now + PropDelay + f.spec.RecvCPU
	fl.arriving = msg
	var dup *Flight
	if f.faults != nil {
		v := f.faults.Transmit(msg.Src, msg.Dst, msg.Size, now)
		if v.Drop {
			// Lost on the wire: the Flight goes back as its last delivery
			// would have given it, and with it whatever the message held.
			f.Dropped++
			fl.owed, fl.arriving = 0, nil
			if fl.owner != nil {
				fl.owner.Recycle()
			}
			return
		}
		deliverAt += v.ExtraDelay
		if v.Corrupt {
			if c, ok := msg.Payload.(Corruptible); ok {
				cm := *msg
				cm.Payload = c.CorruptCopy()
				fl.arriving = &cm
				f.Corrupted++
			}
		}
		if v.Duplicate {
			if dup = fl.snapshot(); dup == nil {
				fl.owed = 2
			}
		}
	}
	for i := 0; i < fl.owed; i++ {
		// A duplicate trails the original by one receiver-CPU slot.
		f.env.AtCall(deliverAt+sim.Time(i)*f.spec.RecvCPU, fl)
	}
	if dup != nil {
		f.env.AtCall(deliverAt+f.spec.RecvCPU, dup)
	}
}

// snapshot splits the delivery of a duplicated message whose payload is a
// Snapshotter that copies into two deliveries of copies: fl delivers one, and
// the Flight returned — of its own, belonging to no one — the other. Neither
// aliases the sender's memory: the receiver may still be reading one copy
// after it answered the other. nil means fl delivers the message twice.
func (fl *Flight) snapshot() *Flight {
	s, ok := fl.arriving.Payload.(Snapshotter)
	if !ok {
		return nil
	}
	payload := s.Snapshot()
	if payload == nil {
		return nil
	}
	dup := &Flight{dst: fl.dst, owed: 1}
	dup.msg = *fl.arriving
	dup.msg.Payload = payload
	dup.arriving = &dup.msg
	first := dup.msg
	first.Payload = s.Snapshot()
	fl.arriving = &first
	return dup
}

// Post hands a message to the NIC without charging caller CPU time (the
// caller models its own cost, e.g. the verbs layer charging doorbell cost).
// It looks node dst up by name; PostFlight's callers hold the node, found
// once when they connected.
func (n *Node) Post(dst string, size int, payload any) *Outgoing {
	to := n.fabric.nodes[dst]
	if to == nil {
		panic(fmt.Sprintf("simnet: send to unknown node %q", dst))
	}
	return n.PostFlight(new(Flight), nil, to, size, payload)
}

// PostFlight is Post to node dst carried by fl, a Flight the caller
// allocated — normally inside the record payload points into. owner,
// normally that record, gets fl back after its last delivery; with owner
// nil, fl is used once. The flight carries dst to its delivery; the message
// names it (Message.Dst) for the fault injector and the receiver.
func (n *Node) PostFlight(fl *Flight, owner Recycler, dst *Node, size int, payload any) *Outgoing {
	if fl.owed != 0 {
		panic("simnet: Flight posted while still in flight")
	}
	fl.msg = Message{Src: n.name, Dst: dst.name, Size: size, Payload: payload}
	fl.dst = dst
	fl.sent.Init()
	fl.delivered.Init()
	fl.out = Outgoing{Sent: &fl.sent, Delivered: &fl.delivered}
	fl.owner = owner
	// One delivery is owed, unless the fault injector drops or duplicates it.
	fl.owed = 1
	n.tx.post(fl)
	return &fl.out
}

// Send charges the caller the host-side CPU cost, then posts the message.
func (n *Node) Send(p *sim.Proc, dst string, size int, payload any) *Outgoing {
	p.Sleep(n.fabric.spec.SendCost(size))
	return n.Post(dst, size, payload)
}

// SendFlight is Send carried by fl, as PostFlight is Post.
func (n *Node) SendFlight(p *sim.Proc, fl *Flight, owner Recycler, dst *Node, size int, payload any) *Outgoing {
	p.Sleep(n.fabric.spec.SendCost(size))
	return n.PostFlight(fl, owner, dst, size, payload)
}
