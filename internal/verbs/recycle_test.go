package verbs

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hybridkv/internal/fault"
	"hybridkv/internal/sim"
	"hybridkv/internal/simnet"
)

// tag is a work request's payload: which WR posted it, and whether the
// fabric garbled it on the way. It counts its holds (Shared), as a server's
// reply does: a SEND or WRITE_IMM passes its poster's hold to the message.
type tag struct {
	id      int
	garbled bool
	holds   int
}

func (t *tag) CorruptCopy() any { return &tag{id: t.id, garbled: true} }
func (t *tag) Retain()          { t.holds++ }
func (t *tag) Release()         { t.holds-- }

// legInjector is a seeded fault.Injector that writes down its verdict on
// each SEND / WRITE_IMM leg from a to b, in serialization order — the order
// they were posted, since a's transmit queue is FIFO — and counts the READ
// legs (the 16-byte request out, the response back) it duplicates.
type legInjector struct {
	in       *fault.Injector
	legs     []simnet.Verdict
	readDups int
}

func (li *legInjector) Transmit(src, dst string, size int, now sim.Time) simnet.Verdict {
	v := li.in.Transmit(src, dst, size, now)
	switch {
	case src == "b" || size == readReqBytes:
		if v.Duplicate {
			li.readDups++
		}
	default:
		li.legs = append(li.legs, v)
	}
	return v
}

// Transfers are recycled after their last delivery — the second, for a
// duplicate — so under drops, duplicates, corruption and latency spikes on
// every leg, each completion still carries what its own work request posted,
// and the two deliveries of a duplicate carry the same thing. A READ whose
// request or response is duplicated completes once: the requester drops
// the second response. Once the run is quiet no transfer is outstanding:
// every one was recycled, a dropped one at its serialization end, giving
// back the hold its message carried, so every payload is held by no one but
// the segment that publishes it.
func TestRecycledTransfersUnderFaults(t *testing.T) {
	const posts = 100_000
	const segs = 64
	r := newRig()
	in := fault.New(fault.Config{Seed: 7, Drop: 0.1, Dup: 0.25, Spike: 0.1})
	in.AddCorrupt(11, 0.2)
	li := &legInjector{in: in}
	r.env.Run() // no driver: the rig's start-up is all that runs
	r.devA.node.Fabric().SetFaults(li)

	// b's region holds one tag per segment; a READ of segment k returns it.
	remote, local := r.pdB.RegisterMRSetup(segs*64), r.pdA.RegisterMRSetup(64)
	segTags := make([]*tag, segs)
	for k := range segTags {
		segTags[k] = &tag{id: -1 - k}
		remote.SetSegment(int64(k*64), segTags[k], 64)
	}
	for i := 0; i < 2*posts; i++ {
		r.qpB.PostRecv(RecvWR{})
	}

	var sent []*tag             // SEND / WRITE_IMM payloads, in post order
	readSeg := map[uint64]int{} // READ WRID → segment it reads
	rng := rand.New(rand.NewSource(3))
	sim.Drive(t, r.env, "poster", func(p *sim.Proc) {
		for i := 0; i < posts; i++ {
			switch rng.Intn(3) {
			case 0:
				pl := &tag{id: i, holds: 1}
				sent = append(sent, pl)
				wr := SendWR{Op: OpSend, Size: 64 + rng.Intn(960), Payload: pl}
				if i%2 == 0 {
					p.Wait(r.qpA.PostSend(p, wr))
				} else {
					r.qpA.PostSend(p, wr)
				}
			case 1:
				pl := &tag{id: i, holds: 1}
				sent = append(sent, pl)
				r.qpA.PostSend(p, SendWR{Op: OpWriteImm, Size: 64 + rng.Intn(960), Payload: pl, RemoteMR: remote.LKey()})
			default:
				k := rng.Intn(segs)
				readSeg[uint64(i)] = k
				r.qpA.PostSend(p, SendWR{WRID: uint64(i), Op: OpRead, Size: 64,
					RemoteMR: remote.LKey(), RemoteOff: int64(k * 64), LocalMR: local, Signaled: true})
			}
		}
	})

	if len(li.legs) != len(sent) {
		t.Fatalf("%d SEND / WRITE_IMM legs serialized, %d posted", len(li.legs), len(sent))
	}
	got := map[int][]any{} // payload id → what each delivery carried
	for c, ok := r.recvB.Poll(); ok; c, ok = r.recvB.Poll() {
		pl, isTag := c.Payload.(*tag)
		if !isTag {
			t.Fatalf("receive completion carries %#v, not a posted payload", c.Payload)
		}
		got[pl.id] = append(got[pl.id], c.Payload)
		Release(c.Payload)
	}
	var dups, garbled int
	for n, pl := range sent {
		v, arrived := li.legs[n], got[pl.id]
		want := 1
		switch {
		case v.Drop:
			want = 0
		case v.Duplicate:
			want = 2
		}
		if len(arrived) != want {
			t.Fatalf("WR %d (verdict %+v): delivered %d times, want %d", pl.id, v, len(arrived), want)
		}
		for _, a := range arrived {
			if a != arrived[0] {
				t.Fatalf("WR %d: the two deliveries of a duplicate carry %p and %p", pl.id, arrived[0], a)
			}
			if g := a.(*tag).garbled; g != v.Corrupt || (!g && a != any(pl)) {
				t.Fatalf("WR %d (verdict %+v): delivered %+v", pl.id, v, a)
			}
		}
		if want == 2 {
			dups++
		}
		if len(arrived) > 0 && v.Corrupt {
			garbled++
		}
		delete(got, pl.id)
	}
	if len(got) != 0 {
		t.Fatalf("%d payloads delivered that no SEND / WRITE_IMM posted", len(got))
	}

	reads := 0
	for c, ok := r.sendA.Poll(); ok; c, ok = r.sendA.Poll() {
		k, posted := readSeg[c.WRID]
		if !posted {
			t.Fatalf("READ completion for WRID %d, which no READ posted or which completed twice", c.WRID)
		}
		delete(readSeg, c.WRID)
		if pl, ok := c.Payload.(*tag); !ok || pl.id != segTags[k].id {
			t.Fatalf("READ %d of segment %d completed with %+v", c.WRID, k, c.Payload)
		}
		Release(c.Payload)
		reads++
	}
	if dups < posts/20 || li.readDups < posts/20 || garbled < posts/20 || reads < posts/5 || in.Drops < posts/20 || in.Spikes < posts/20 {
		t.Errorf("faults too rare to tell: %d duplicates, %d duplicated READ legs, %d garbled, %d READs completed, %d drops, %d spikes",
			dups, li.readDups, garbled, reads, in.Drops, in.Spikes)
	}

	// With nothing lost, every READ completes, and exactly once, whichever
	// of its legs are duplicated: each of these duplicates both.
	r.devA.node.Fabric().SetFaults(fault.New(fault.Config{Seed: 9, Dup: 1}))
	const lossless = 1000
	sim.Drive(t, r.env, "reader", func(p *sim.Proc) {
		for i := 0; i < lossless; i++ {
			r.qpA.PostSend(p, SendWR{WRID: uint64(posts + i), Op: OpRead, Size: 64,
				RemoteMR: remote.LKey(), RemoteOff: int64(i % segs * 64), LocalMR: local, Signaled: true})
		}
	})
	for i := 0; i < lossless; i++ {
		c, ok := r.sendA.Poll()
		if !ok {
			t.Fatalf("%d of %d READs completed with every leg duplicated", i, lossless)
		}
		if want := uint64(posts + i); c.WRID != want || c.Payload.(*tag).id != segTags[i%segs].id {
			t.Fatalf("completion %d: WRID %d carrying %+v, want WRID %d with segment %d", i, c.WRID, c.Payload, want, i%segs)
		}
		Release(c.Payload)
	}
	if c, ok := r.sendA.Poll(); ok {
		t.Fatalf("READ %d completed twice", c.WRID)
	}

	for _, pl := range sent {
		if pl.holds != 0 {
			t.Fatalf("WR %d's payload has %d holds at quiesce, want 0: a transfer carrying it is outstanding", pl.id, pl.holds)
		}
	}
	for k, pl := range segTags {
		if pl.holds != 1 {
			t.Fatalf("segment %d's payload has %d holds at quiesce, want its segment's alone", k, pl.holds)
		}
	}
}

// The two kernel-style checks on a recycled transfer: it cannot be posted
// while in flight, and a delivery cannot fire once its last has.
func TestRecycledTransferMisuse(t *testing.T) {
	mustPanic := func(t *testing.T, want string, fn func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
				t.Errorf("panic %v, want one naming %q", r, want)
			}
		}()
		fn()
	}
	// recycled returns a rig whose HCA a has one transfer on its free list,
	// the SEND it has delivered.
	recycled := func() (*rig, *transfer) {
		r := newRig()
		r.qpB.PostRecv(RecvWR{})
		r.qpB.PostRecv(RecvWR{})
		r.qpA.PostSendSetup(SendWR{Op: OpSend, Size: 64})
		r.env.Run() // no driver: the SEND is posted without a process
		if r.devA.xfers.free == nil || r.devA.xfers.free.next != nil {
			panic("the delivered SEND's transfer is not alone on its HCA's free list")
		}
		return r, r.devA.xfers.free
	}
	t.Run("posted while in flight", func(t *testing.T) {
		r, tr := recycled()
		r.qpA.PostSendSetup(SendWR{Op: OpSend, Size: 64}) // takes tr
		mustPanic(t, "posted while still in flight", func() {
			r.devA.node.PostFlight(&tr.fl, tr, r.devB.node, 64, &tr.w)
		})
	})
	t.Run("fired after its last delivery", func(t *testing.T) {
		_, tr := recycled()
		mustPanic(t, "fired after its last delivery", tr.fl.Fire)
	})
}
