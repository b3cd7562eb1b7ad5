package blockdev

import "hybridkv/internal/sim"

// writeShare is the drive's write bandwidth, one resource its channels
// share. A write command pays its WriteBase on its own channel; then its
// bytes move at WriteBps, one write's at a time: the write with the fewest
// bytes left goes first (a small write lands in the drive's buffer ahead of
// a large one in progress), equal ones in arrival order. A lone write costs
// exactly WriteTime, a small write beside a 1 MB one costs what it costs
// alone while the large one waits out the small one's transfer, and writes
// in flight together never sustain more than WriteBps, however many
// channels they hold. A write that would wait for the bandwidth waits
// before it takes a channel (await), so it never keeps one from a read.
//
// Each write in flight owns one slot, at most one per channel, so serving a
// write allocates nothing. The shared state is brought up to the present
// whenever a write arrives or leaves, and an arrival projects every slot's
// end again. An arrival only adds work, so a projected end only moves later:
// a command sleeps to its end, and sleeps again if the end moved meanwhile.
type writeShare struct {
	asOf  sim.Time
	slots []wslot
	proj  []wslot // scratch copy for project
}

type wslot struct {
	busy  bool
	start sim.Time // the transfer may begin once the command's WriteBase is paid
	left  sim.Time // transfer time still to go as of asOf
	end   sim.Time // the command's projected completion
}

func newWriteShare(channels int) writeShare {
	return writeShare{slots: make([]wslot, channels), proj: make([]wslot, channels+1)}
}

// await holds a write command whose solo service time is t, WriteBase
// included, until it should take a channel: at once, unless the bandwidth
// is promised to transfers that go before it, in which case until its base
// would end just as they do. A write waiting for the bandwidth holds no
// channel, so reads and smaller writes keep the channels meanwhile.
func (w *writeShare) await(p *sim.Proc, base, t sim.Time) {
	for at := w.admitAt(p.Now(), base, t); at > p.Now(); at = w.admitAt(p.Now(), base, t) {
		p.WaitUntil(at)
	}
}

// admitAt is when a write arriving now should take a channel, were no other
// write to arrive.
func (w *writeShare) admitAt(now, base, t sim.Time) sim.Time {
	w.advance(now)
	n := copy(w.proj, w.slots)
	w.proj[n] = wslot{busy: true, start: now + base, left: t - base, end: now + t}
	flow(w.proj[:n+1], now, -1)
	return w.proj[n].end - t
}

// serve times one write command whose solo service time is t, WriteBase
// included, on a channel the caller holds.
func (w *writeShare) serve(p *sim.Proc, base, t sim.Time) {
	now := p.Now()
	w.advance(now)
	i := 0
	for w.slots[i].busy {
		i++
	}
	w.slots[i] = wslot{busy: true, start: now + base, left: t - base, end: now + t}
	w.project()
	for p.WaitUntil(w.slots[i].end); p.Now() < w.slots[i].end; {
		p.WaitUntil(w.slots[i].end)
	}
	w.advance(p.Now())
	w.slots[i].busy = false
}

func (w *writeShare) advance(to sim.Time) {
	flow(w.slots, w.asOf, to)
	w.asOf = to
}

// project stamps every unfinished slot with the end it reaches if no other
// write arrives.
func (w *writeShare) project() {
	copy(w.proj, w.slots)
	flow(w.proj, w.asOf, -1)
	for i := range w.slots {
		if w.slots[i].busy && w.slots[i].left > 0 {
			w.slots[i].end = w.proj[i].end
		}
	}
}

// flow moves the transfers in xs from time t to time until (until < 0: until
// all are done), the one with the least left at a time, and stamps each
// transfer that finishes with its end.
func flow(xs []wslot, t, until sim.Time) {
	for until < 0 || t < until {
		run, next := -1, until
		for i := range xs {
			x := &xs[i]
			switch {
			case !x.busy || x.left <= 0:
			case x.start > t:
				if next < 0 || x.start < next {
					next = x.start
				}
			case run < 0 || x.left < xs[run].left || x.left == xs[run].left && x.start < xs[run].start:
				run = i
			}
		}
		if run < 0 {
			if next < 0 {
				return
			}
			t = next
			continue
		}
		x := &xs[run]
		step := x.left
		if next >= 0 {
			step = min(step, next-t)
		}
		t += step
		if x.left -= step; x.left == 0 {
			x.end = t
		}
	}
}
