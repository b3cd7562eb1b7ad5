package pagecache

import (
	"math"
	"slices"
	"testing"

	"hybridkv/internal/blockdev"
	"hybridkv/internal/sim"
)

// writebackRig is a cache with 4 MB / 8 MB watermarks over a drive of the
// given profile, sized so that no test here reaches direct reclaim: every
// device write it sees is a writeback command.
func writebackRig(prof blockdev.Profile) (*sim.Env, *Cache, *File) {
	env := sim.NewEnv()
	par := DefaultParams()
	par.MaxPages = 8192
	par.DirtyHighPages, par.ThrottlePages = 1024, 2048
	c := New(env, blockdev.New(env, prof, 8<<30), par)
	return env, c, c.OpenFile(0, 4<<30)
}

// drives are the two drive profiles every writeback test runs on.
var drives = []struct {
	name string
	p    blockdev.Profile
}{{"SATA", blockdev.SATA()}, {"NVMe", blockdev.NVMe()}}

// TestThrottledWritebackDepth watches the writeback commands in flight,
// sampled every microsecond (a command lasts at least the drive's write
// base, 15 µs on NVMe), through three phases: bursts that cross the
// flusher's watermark but never the throttle, where background writeback
// keeps one command in flight; four writers that outrun the drive, where
// the depth reaches two and never exceeds it, whatever the drive's channel
// count; and the idle tail after they stop, where the dirty set drains to
// half the watermark, so no kick was lost while several procs were parked.
func TestThrottledWritebackDepth(t *testing.T) {
	for _, prof := range drives {
		t.Run(prof.name, func(t *testing.T) {
			env, c, f := writebackRig(prof.p)
			const mb = 1 << 20
			var next int64
			write := func(p *sim.Proc) {
				off := next
				next += mb
				f.Write(p, off, mb, off, Cached)
			}
			peak := 0
			running := true
			env.Spawn("monitor", func(p *sim.Proc) {
				for running || c.writing > 0 {
					peak = max(peak, c.writing)
					p.Sleep(sim.Microsecond)
				}
			})

			// Phase 1: 6 MB bursts (1 536 pages, above DirtyHighPages and
			// below ThrottlePages), each left to drain.
			sim.DriveUntil(t, env, 200*sim.Millisecond, sim.Driver{Name: "bursts", Fn: func(p *sim.Proc) {
				for burst := 0; burst < 3; burst++ {
					for i := 0; i < 6; i++ {
						write(p)
					}
					p.Sleep(50 * sim.Millisecond)
				}
			}})
			if c.ThrottleStalls != 0 || c.WritebackPages == 0 {
				t.Fatalf("bursts: %d throttle stalls, %d pages written back; want 0 and some", c.ThrottleStalls, c.WritebackPages)
			}
			if peak != 1 {
				t.Errorf("background writeback: %d commands in flight at peak, want 1", peak)
			}

			// Phase 2: four writers, 8 MB each, far faster than the drive.
			peak = 0
			left := 4
			writers := make([]sim.Driver, left)
			for w := range writers {
				writers[w] = sim.Driver{Name: "writer", Fn: func(p *sim.Proc) {
					for i := 0; i < 8; i++ {
						write(p)
					}
					if left--; left == 0 {
						running = false
					}
				}}
			}
			sim.DriveUntil(t, env, -1, writers...)
			if c.ThrottleStalls == 0 {
				t.Fatalf("four writers never throttled")
			}
			if peak != 2 {
				t.Errorf("throttled writers: %d commands in flight at peak, want 2", peak)
			}

			// Phase 3: idle; the flusher has drained to its low mark.
			if c.Dirty() > c.Params().DirtyHighPages/2 {
				t.Errorf("%d dirty pages left after the writers stopped, want ≤ %d", c.Dirty(), c.Params().DirtyHighPages/2)
			}
			if c.extra || c.writing != 0 {
				t.Errorf("after the run: extra writeback proc running %v, %d commands in flight; want false and 0", c.extra, c.writing)
			}
		})
	}
}

// TestThrottledWritebackRate is a closed-form oracle for the throttled
// cached-write path: eight writers issuing 1 MB cached writes as fast as the
// page cache admits them are held to writeback's rate. With a writer always
// parked, writeback runs two streams of 1 MB commands, so the rate is
// min(2 × 1 MiB / WriteTime(1 MiB), WriteBps): two commands per solo
// service time, capped by the drive's write bandwidth, which every command
// in flight shares. On both drives the cap binds: 430.0 MB/s on SATA,
// 1 900.0 MB/s on NVMe. The rate is measured over 128 MB of steady state,
// after the first 16 MB. With one writeback stream whatever the throttle,
// the same rig measures 1 MiB / WriteTime(1 MiB), 418.0 and 1 849.7 MB/s
// (2.8 and 2.6 % short), and fails here; with each channel writing at the
// full WriteBps, it measured 836.0 and 3 699.5 MB/s, and fails too.
func TestThrottledWritebackRate(t *testing.T) {
	for _, prof := range drives {
		t.Run(prof.name, func(t *testing.T) {
			env, c, f := writebackRig(prof.p)
			const mb, warm, window = 1 << 20, 16, 128
			var next int64
			written := 0
			var t0, t1 sim.Time
			writers := make([]sim.Driver, 8)
			for w := range writers {
				writers[w] = sim.Driver{Name: "writer", Fn: func(p *sim.Proc) {
					for written < warm+window {
						off := next
						next += mb
						f.Write(p, off%f.Size(), mb, off, Cached)
						switch written++; written {
						case warm:
							t0 = p.Now()
						case warm + window:
							t1 = p.Now()
						}
					}
				}}
			}
			sim.DriveUntil(t, env, -1, writers...)
			got := window * mb / (t1 - t0).Seconds()
			want := min(2*mb/prof.p.WriteTime(mb).Seconds(), float64(prof.p.WriteBps))
			if math.Abs(got/want-1) > 0.01 {
				t.Errorf("throttled cached writes sustain %.1f MB/s, want min(2 × 1 MiB / WriteTime(1 MiB), WriteBps) = %.1f MB/s within 1%%", got/1e6, want/1e6)
			}
			if c.ThrottleStalls == 0 {
				t.Errorf("the writers never throttled")
			}
		})
	}
}

// cachedWriteTime is what a 1 MB cached write costs a writer that does not
// park: the syscall and the copy into the cache. A write that took longer
// parked in the throttle from that point on.
var cachedWriteTime = SyscallCost + sim.TransferTime(1<<20, sim.MemcpyBps)

// TestThrottleReleaseIgnoresLaterWriters runs one schedule twice: writer A
// issues 1 MB cached writes until its second write that parks in the
// throttle returns (the first starts the second writeback stream), and in
// the second run writer B starts a 1 MB write the microsecond after A parks
// for the second time, so B's pages land while A is still parked. A is held
// for its own overshoot, so it leaves at the same instant in both runs. When
// a writer left only once the dirty set was back at ThrottlePages, B's
// megabyte held A for one more 1 MB writeback command, and this failed.
func TestThrottleReleaseIgnoresLaterWriters(t *testing.T) {
	for _, prof := range drives {
		t.Run(prof.name, func(t *testing.T) {
			run := func(withB bool) (released, bDirtied sim.Time) {
				env, c, f := writebackRig(prof.p)
				const mb = 1 << 20
				ds := []sim.Driver{{Name: "A", Fn: func(p *sim.Proc) {
					for off, parks := int64(0), 0; parks < 2; off += mb {
						start := p.Now()
						f.Write(p, off, mb, off, Cached)
						if p.Now() > start+cachedWriteTime {
							parks++
						}
					}
					released = p.Now()
				}}}
				if withB {
					ds = append(ds, sim.Driver{Name: "B", Fn: func(p *sim.Proc) {
						for parks, wasParked := 0, false; parks < 2; p.Sleep(sim.Microsecond) {
							if c.parked > 0 && !wasParked {
								parks++
							}
							wasParked = c.parked > 0
						}
						bDirtied = p.Now() + cachedWriteTime
						f.Write(p, 1<<30, mb, "B", Cached)
					}})
				}
				sim.DriveUntil(t, env, -1, ds...)
				if dev := c.dev; dev.BytesWrite != dev.Writes*mb {
					t.Errorf("%d device writes of %d bytes: a write other than a 1 MB writeback command", dev.Writes, dev.BytesWrite)
				}
				return released, bDirtied
			}
			alone, _ := run(false)
			shared, bDirtied := run(true)
			if bDirtied >= shared {
				t.Fatalf("B's pages dirtied at %v, A released at %v: want B's pages in while A is parked", bDirtied, shared)
			}
			if shared != alone {
				t.Errorf("A released at %v with B's megabyte dirtied behind it, at %v without; want the same instant", shared, alone)
			}
		})
	}
}

// TestThrottledWritersLeaveInParkOrder runs four writers of 1 MB cached
// writes, far faster than the drive, and checks the throttle's oracle:
//   - a write that parked earlier leaves no later than one that parked after
//     it (a later ticket adds what was dirtied in between, so it is never
//     smaller);
//   - the dirty set, sampled every microsecond, never exceeds ThrottlePages
//     plus the pages of the writes parked at that instant;
//   - ThrottleStalls counts the writes that parked, once each;
//   - every device write is a full 1 MB writeback command, so direct reclaim
//     (a 4 KB write in the writer's context) is never reached.
func TestThrottledWritersLeaveInParkOrder(t *testing.T) {
	for _, prof := range drives {
		t.Run(prof.name, func(t *testing.T) {
			env, c, f := writebackRig(prof.p)
			const mb, writers, each = 1 << 20, 4, 6
			pages := mb / c.Params().PageSize
			type write struct{ start, end sim.Time }
			var writes []*write
			current := make([]*write, writers)
			var next int64
			ds := make([]sim.Driver, writers)
			for w := range ds {
				ds[w] = sim.Driver{Name: "writer", Fn: func(p *sim.Proc) {
					for range each {
						wr := &write{start: p.Now()}
						writes, current[w] = append(writes, wr), wr
						off := next
						next += mb
						f.Write(p, off, mb, off, Cached)
						wr.end, current[w] = p.Now(), nil
					}
				}}
			}
			violations := 0
			sim.DriveUntil(t, env, -1, append(ds, sim.Driver{Name: "monitor", Fn: func(p *sim.Proc) {
				for len(writes) < writers*each || slices.ContainsFunc(current, func(w *write) bool { return w != nil }) {
					parked := 0
					for _, wr := range current {
						if wr != nil && p.Now() >= wr.start+cachedWriteTime {
							parked += pages
						}
					}
					if c.Dirty() > c.Params().ThrottlePages+parked {
						if violations++; violations == 1 {
							t.Errorf("at %v: %d dirty pages, above ThrottlePages %d plus %d pages of parked writes", p.Now(), c.Dirty(), c.Params().ThrottlePages, parked)
						}
					}
					p.Sleep(sim.Microsecond)
				}
			}})...)

			var parked []*write
			for _, wr := range writes {
				if wr.end > wr.start+cachedWriteTime {
					parked = append(parked, wr)
				}
			}
			if len(parked) < writers || int64(len(parked)) != c.ThrottleStalls {
				t.Errorf("%d writes parked, ThrottleStalls %d; want equal, and at least %d", len(parked), c.ThrottleStalls, writers)
			}
			for _, a := range parked {
				for _, b := range parked {
					if a.start < b.start && a.end > b.end {
						t.Errorf("a write parked at %v left at %v, after one parked at %v that left at %v", a.start+cachedWriteTime, a.end, b.start+cachedWriteTime, b.end)
					}
				}
			}
			if dev := c.dev; dev.Writes == 0 || dev.BytesWrite != dev.Writes*mb || dev.BytesWrite != c.WritebackPages*int64(c.Params().PageSize) {
				t.Errorf("%d device writes of %d bytes for %d pages written back: want only 1 MB writeback commands", dev.Writes, dev.BytesWrite, c.WritebackPages)
			}
		})
	}
}

// TestColdRestartReleasesParkedWriters cuts the power while region writes
// (WriteExtents, cached) are parked in the throttle. The restart drops the
// dirty set, so the first writeback completion after it releases every
// parked writer, none hangs, and every write in flight across the restart,
// parked or still copying, places nothing, logical or durable.
func TestColdRestartReleasesParkedWriters(t *testing.T) {
	for _, prof := range drives {
		t.Run(prof.name, func(t *testing.T) {
			env, c, f := writebackRig(prof.p)
			const mb, writers = 1 << 20, 4
			type write struct {
				off        int64
				start, end sim.Time
				ok         bool
			}
			var writes []*write
			var next int64
			ds := make([]sim.Driver, writers)
			for w := range ds {
				ds[w] = sim.Driver{Name: "writer", Fn: func(p *sim.Proc) {
					for range 8 {
						wr := &write{off: next, start: p.Now()}
						next += mb
						writes = append(writes, wr)
						wr.ok = f.WriteExtents(p, wr.off, mb, []Extent{{Off: wr.off, Size: mb, Payload: wr.off}}, Cached)
						wr.end = p.Now()
					}
				}}
			}
			var cut, firstCompletion sim.Time
			sim.DriveUntil(t, env, -1, append(ds, sim.Driver{Name: "power-cut", Fn: func(p *sim.Proc) {
				for c.parked < 2 {
					p.Sleep(sim.Microsecond)
				}
				cut = p.Now()
				f.RecoverExtents()
				p.Wait(c.wbYield)
				firstCompletion = p.Now()
			}})...)
			parked := 0
			for _, wr := range writes {
				if wr.start >= cut || wr.end < cut {
					continue // before or after the restart
				}
				if wr.start+cachedWriteTime <= cut {
					parked++
					if wr.end != firstCompletion {
						t.Errorf("write at %d parked across the restart left at %v, want the first writeback completion after it, %v", wr.off, wr.end, firstCompletion)
					}
				}
				_, logical := f.Peek(wr.off)
				_, durable := f.PeekDurable(wr.off)
				if wr.ok || logical || durable {
					t.Errorf("write at %d in flight across the restart: ok=%v, placed logical=%v durable=%v; want nothing", wr.off, wr.ok, logical, durable)
				}
			}
			if parked < 2 {
				t.Errorf("%d writes parked across the restart, want at least 2", parked)
			}
		})
	}
}

// TestThrottleCountsPagesAtTakeTime parks one writer while the flusher's
// command is in flight with a batch smaller than the writer's excess, and
// checks that it leaves at the first writeback completion after it parks. A
// page counts toward a ticket the moment writeback takes it: the flusher's
// in-flight 200 pages were counted before the ticket was cut, and the
// second stream's full batch, taken as the writer parks, covers its 256-page
// excess, so that completion releases it although a later 2 MB write keeps
// the dirty set above ThrottlePages. Counting a batch only when its command
// completes would hold the writer to the second stream's completion.
func TestThrottleCountsPagesAtTakeTime(t *testing.T) {
	for _, prof := range drives {
		t.Run(prof.name, func(t *testing.T) {
			env, c, f := writebackRig(prof.p)
			const mb, group = 1 << 20, 9
			ps := c.Params().PageSize
			// 200 pages dirty, then a kick: the flusher's command takes them
			// all. Nine 1 MB writers land together while it is in flight, so
			// the last of them leaves 2 304 pages dirty, 256 over the limit,
			// and parks; a 2 MB writer lands after the second stream took its
			// batch.
			type write struct{ start, end sim.Time }
			var writes []*write
			start := sim.Driver{Name: "start", Fn: func(p *sim.Proc) {
				f.Write(p, 0, 200*ps, "small", Cached)
				c.Kick()
				for i := range group {
					wr := &write{start: p.Now()}
					writes = append(writes, wr)
					env.Spawn("writer", func(q *sim.Proc) {
						f.Write(q, int64(i+1)*mb, mb, i, Cached)
						wr.end = q.Now()
					})
				}
				env.Spawn("late", func(q *sim.Proc) { f.Write(q, 16*mb, 2*mb, "late", Cached) })
			}}
			var parkedAt, firstCompletion sim.Time
			var done int64
			var dirtyThen int
			sim.DriveUntil(t, env, -1, start, sim.Driver{Name: "monitor", Fn: func(p *sim.Proc) {
				for c.parked == 0 {
					p.Sleep(sim.Microsecond)
				}
				parkedAt, done = p.Now(), c.WritebackPages
				p.Wait(c.wbYield)
				firstCompletion, dirtyThen = p.Now(), c.Dirty()
			}})

			var parked []*write
			for _, wr := range writes {
				if wr.end > wr.start+cachedWriteTime {
					parked = append(parked, wr)
				}
			}
			if len(parked) != 1 {
				t.Fatalf("%d of the %d 1 MB writes parked, want 1", len(parked), group)
			}
			if done != 0 || dirtyThen <= c.Params().ThrottlePages {
				t.Fatalf("the premise: %d pages written back before the park at %v (want none: the flusher's batch still in flight), %d pages dirty at the first completion (want above %d)",
					done, parkedAt, dirtyThen, c.Params().ThrottlePages)
			}
			if got := parked[0].end; got != firstCompletion {
				t.Errorf("the parked writer left at %v, want the first writeback completion after it parked, %v", got, firstCompletion)
			}
		})
	}
}
