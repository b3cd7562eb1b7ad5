package verbs

import (
	"fmt"
	"math/rand"
	"testing"

	"hybridkv/internal/fault"
	"hybridkv/internal/sim"
)

// rec is a record published at a segment of an array region, as a directory
// bucket is: immutable once set, counting its holds. freed counts the times
// its holds reached zero, misuse every hold taken or given back after that.
type rec struct {
	id     int
	off    int64 // -1: published at every segment by FillSegments
	holds  int
	freed  int
	misuse int
}

func (r *rec) Retain() {
	if r.freed > 0 {
		r.misuse++
	}
	r.holds++
}

func (r *rec) Release() {
	if r.holds--; r.holds == 0 {
		r.freed++
	} else if r.holds < 0 {
		r.misuse++
	}
}

// TestArraySegmentsModel drives a region registered as an array of 64-byte
// segments with random SetSegment, ClearSegment and Segment calls at random
// segment offsets, FillSegments and ClearSegments, and signaled READs in flight
// across those calls, on a fabric that duplicates READ requests and
// responses and delays some. A map of what each offset holds is the
// reference: every Segment returns what it says, and every READ completes
// carrying a record its offset held at some point between its post and its
// completion — a snapshot it keeps, still held, across the SetSegments and
// clears that landed after it was captured. Once the region is cleared every
// record has been released exactly once: its holds reached zero once, and
// nothing took or gave back a hold after that.
func TestArraySegmentsModel(t *testing.T) {
	const (
		stride = 64
		segs   = 32
		rounds = 2000
	)
	r := newRig()
	r.env.Run() // no driver: the rig's start-up is all that runs
	r.devA.node.Fabric().SetFaults(fault.New(fault.Config{Seed: 9, Dup: 0.2, Spike: 0.1}))
	mr := r.pdB.RegisterArrayMRSetup(segs*stride, stride)

	ref := map[int64]*rec{}      // what each offset holds; absent is empty
	held := make([][]*rec, segs) // every record each offset held, in order; nil is empty
	for i := range held {
		held[i] = []*rec{nil}
	}
	var recs []*rec
	type read struct {
		off  int64
		from int // held[off/stride][from:] is what the READ may capture
	}
	posted := map[uint64]read{}
	rng := rand.New(rand.NewSource(5))
	offset := func() int64 { return int64(rng.Intn(segs)) * stride }
	var reads, stale int

	complete := func(c Completion) {
		rd, ok := posted[c.WRID]
		if !ok {
			t.Fatalf("READ %d completed twice, or was never posted", c.WRID)
		}
		delete(posted, c.WRID)
		got, _ := c.Payload.(*rec)
		if c.Payload != nil && got == nil {
			t.Fatalf("READ %d of %d carries %T", c.WRID, rd.off, c.Payload)
		}
		var during bool
		for _, x := range held[rd.off/stride][rd.from:] {
			during = during || x == got
		}
		if !during {
			t.Fatalf("READ %d of %d carries record %v, which the offset did not hold while the READ was in flight", c.WRID, rd.off, got)
		}
		if got != nil {
			if got.freed > 0 || got.holds < 1 {
				t.Fatalf("READ %d of %d carries record %d with %d holds, freed %d times", c.WRID, rd.off, got.id, got.holds, got.freed)
			}
			if ref[rd.off] != got {
				stale++ // replaced or cleared since its capture: the READ kept its snapshot
			}
		}
		Release(c.Payload)
	}

	sim.Drive(t, r.env, "model", func(p *sim.Proc) {
		for range rounds {
			for range rng.Intn(4) {
				wrid := uint64(reads)
				reads++
				off := offset()
				posted[wrid] = read{off: off, from: len(held[off/stride]) - 1}
				r.qpA.PostSendSetup(SendWR{WRID: wrid, Op: OpRead, Size: stride, RemoteMR: mr.LKey(), RemoteOff: off, Signaled: true})
			}
			off, k := offset(), rng.Intn(100)
			switch {
			case k < 45:
				x := &rec{id: len(recs), off: off, holds: 1}
				recs = append(recs, x)
				mr.SetSegment(off, x, stride)
				x.Release() // the segment's hold is the one left
				ref[off] = x
				held[off/stride] = append(held[off/stride], x)
			case k < 60:
				mr.ClearSegment(off)
				delete(ref, off)
				held[off/stride] = append(held[off/stride], nil)
			case k < 61:
				mr.ClearSegments()
				clear(ref)
				for i := range held {
					held[i] = append(held[i], nil)
				}
			case k < 62:
				x := &rec{id: len(recs), off: -1, holds: 1}
				recs = append(recs, x)
				mr.FillSegments(x)
				x.Release() // the segments' holds are the ones left
				for i := range held {
					ref[int64(i)*stride] = x
					held[i] = append(held[i], x)
				}
			default:
				v, n := mr.Segment(off)
				if want := ref[off]; want == nil && (v != nil || n != 0) || want != nil && (v != want || n != stride) {
					t.Fatalf("Segment(%d) = %v, %d; the reference holds %v", off, v, n, want)
				}
			}
			p.Sleep(sim.Time(rng.Intn(1000)) * sim.Nanosecond)
			for c, ok := r.sendA.Poll(); ok; c, ok = r.sendA.Poll() {
				complete(c)
			}
		}
		for len(posted) > 0 {
			complete(r.sendA.WaitPoll(p))
		}
	})

	if stale == 0 {
		t.Errorf("no READ completed after its offset was set again or cleared: %d READs never tested a snapshot", reads)
	}
	mr.ClearSegments()
	for _, x := range recs {
		if x.holds != 0 || x.freed != 1 || x.misuse != 0 {
			t.Errorf("record %d (offset %d): %d holds, released to zero %d times, %d holds taken or given after", x.id, x.off, x.holds, x.freed, x.misuse)
		}
	}
	t.Logf("%d records, %d READs, %d of them completed after their offset changed", len(recs), reads, stale)
}

// An array region refuses an offset that is not one of its segments — off
// the stride, negative or past the end — in every call and in a READ, and a
// segment of another length than its stride; a refused SetSegment takes no
// hold. Only an array region can be filled.
func TestArraySegmentsRefuseOffsets(t *testing.T) {
	const stride, segs = 64, 4
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	r := newRig()
	mr := r.pdB.RegisterArrayMRSetup(segs*stride, stride)
	x := &rec{holds: 1}
	for _, off := range []int64{1, stride - 1, stride + 3, -stride, segs * stride, (segs + 1) * stride} {
		mustPanic(fmt.Sprint("SetSegment at ", off), func() { mr.SetSegment(off, x, stride) })
		mustPanic(fmt.Sprint("Segment at ", off), func() { mr.Segment(off) })
		mustPanic(fmt.Sprint("ClearSegment at ", off), func() { mr.ClearSegment(off) })
	}
	mustPanic("a segment longer than the stride", func() { mr.SetSegment(stride, x, stride+1) })
	mustPanic("a segment shorter than the stride", func() { mr.SetSegment(stride, x, stride-1) })
	mustPanic("filling a region that is not an array", func() { r.pdB.RegisterMRSetup(segs * stride).FillSegments(x) })
	mustPanic("a region that is not a whole number of segments", func() { r.pdB.RegisterArrayMRSetup(segs*stride+1, stride) })
	if x.holds != 1 {
		t.Errorf("refused SetSegments left the record %d holds, want its own 1", x.holds)
	}
	r.env.Run() // no driver: the rig's start-up is all that runs
	r.qpA.PostSendSetup(SendWR{Op: OpRead, Size: stride, RemoteMR: mr.LKey(), RemoteOff: stride / 2, Signaled: true})
	mustPanic("a READ off the stride", func() {
		r.env.Run() // no driver: the READ's delivery is a callback, and its panic is what is tested
	})
}
