package pagecache

import (
	"testing"

	"hybridkv/internal/blockdev"
	"hybridkv/internal/sim"
)

// The three region ops: regionWrite rewrites the next region with one
// WriteExtents under the scheme, regionRead fetches one slot of the next
// region, regionPunch rewrites the next region and punches its three slots
// (seven whole pages each).
const (
	regionWrite = iota
	regionRead
	regionPunch
)

// regionModel returns a step that makes one region op on a file of 64
// slab-page-like regions (a 512-byte header and three 32 KB slots each). The
// file is eight times the cache, so in steady state the reads miss and the
// writes fault and evict.
func regionModel(scheme Scheme, op int) func(testing.TB) (step func()) {
	return func(tb testing.TB) (step func()) {
		env := sim.NewEnv()
		par := DefaultParams()
		par.MaxPages = 256
		par.DirtyHighPages, par.ThrottlePages = 64, 128
		c := New(env, blockdev.New(env, blockdev.NVMe(), 1<<30), par)
		const regions, slot = 64, 32 * 1024
		const size = 512 + 3*slot
		f := c.OpenFile(0, regions*size)
		exts := make([]Extent, 4)
		next := 0
		doWrite := func(p *sim.Proc) {
			base := int64(next%regions) * size
			next++
			exts[0] = Extent{Off: base, Size: 512, Payload: c}
			for i := 1; i < len(exts); i++ {
				exts[i] = Extent{Off: base + 512 + int64(i-1)*slot, Size: slot, Payload: c}
			}
			if !f.WriteExtents(p, base, size, exts, scheme) {
				panic("regionModel: write refused")
			}
		}
		doRead := func(p *sim.Proc) {
			base := int64(next%regions) * size
			next++
			if _, ok := f.Read(p, base+512, slot, scheme); !ok {
				panic("regionModel: slot missing")
			}
		}
		doPunch := func(p *sim.Proc) {
			base := int64(next%regions) * size
			doWrite(p)
			for i := 0; i < 3; i++ {
				f.Punch(base + 512 + int64(i)*slot)
			}
		}
		sim.Drive(tb, env, "fill", func(p *sim.Proc) {
			for i := 0; i < regions; i++ {
				doWrite(p)
			}
		})
		// The step runs no rig: allocations are the subject, and a step left
		// parked would make the next Spawn build a fresh coroutine, which the
		// ceilings count.
		do := [...]func(*sim.Proc){doWrite, doRead, doPunch}[op]
		return func() { env.Spawn("region", do); env.Run() } // no driver: see above
	}
}

// readMissBehindDirtyTail returns a step that makes one cached read of a
// page that is not resident, in a full cache whose ThrottlePages least
// recent pages are dirty, so the read must evict a clean page from behind
// them. The flusher's watermark is raised to the throttle's, so nothing
// cleans the dirty pages. The reads cycle over twice the clean capacity:
// every one misses.
func readMissBehindDirtyTail(tb testing.TB) func() {
	env := sim.NewEnv()
	par := DefaultParams()
	par.DirtyHighPages = par.ThrottlePages
	c := New(env, blockdev.New(env, blockdev.NVMe(), 1<<30), par)
	ps := int64(par.PageSize)
	dirty, clean := int64(par.ThrottlePages), int64(par.MaxPages-par.ThrottlePages)
	f := c.OpenFile(0, (dirty+2*clean)*ps)
	sim.Drive(tb, env, "fill", func(p *sim.Proc) {
		f.Write(p, 0, int(dirty*ps), c, Cached)
		f.Read(p, dirty*ps, int(clean*ps), Cached)
	})
	if c.Dirty() != par.ThrottlePages || c.pages.len() != par.MaxPages {
		panic("readMissBehindDirtyTail: the fill left the cache not full or not dirty at the throttle")
	}
	next := clean
	read := func(p *sim.Proc) {
		f.Read(p, (dirty+next%(2*clean))*ps, int(ps), Cached)
		next++
	}
	return func() { env.Spawn("read", read); env.Run() } // no driver: allocations are the subject, as in regionModel
}

// readMissEvict returns a step that makes one cached read of a page that is
// not resident, in a full cache of clean pages: the read faults the page in
// and evicts the clean ring's tail, dropping it from the resident-page table
// and adding the new one. The reads cycle over twice the cache: every one
// misses.
func readMissEvict(tb testing.TB) func() {
	env := sim.NewEnv()
	par := DefaultParams()
	c := New(env, blockdev.New(env, blockdev.NVMe(), 1<<30), par)
	ps, cached := int64(par.PageSize), int64(par.MaxPages)
	f := c.OpenFile(0, 2*cached*ps)
	sim.Drive(tb, env, "fill", func(p *sim.Proc) { f.Read(p, 0, int(cached*ps), Cached) })
	if c.Dirty() != 0 || c.pages.len() != par.MaxPages {
		panic("readMissEvict: the fill left the cache not full or not clean")
	}
	next := cached
	read := func(p *sim.Proc) {
		f.Read(p, next%(2*cached)*ps, int(ps), Cached)
		next++
	}
	return func() { env.Spawn("read", read); env.Run() } // no driver: allocations are the subject, as in regionModel
}

// throttledWrites returns a step in which two writers make cached writes
// to resident pages of a cache that starts clean: a 576 KB write that
// leaves the dirty set above ThrottlePages, parks and is released by the
// writeback command its overshoot starts, and a 16 KB one that does not.
func throttledWrites(testing.TB) (step func()) {
	env := sim.NewEnv()
	par := DefaultParams()
	par.MaxPages = 256
	par.DirtyHighPages, par.ThrottlePages = 64, 128
	c := New(env, blockdev.New(env, blockdev.NVMe(), 1<<30), par)
	f := c.OpenFile(0, 1<<20)
	big := func(p *sim.Proc) { f.Write(p, 0, 144*4096, c, Cached) }
	small := func(p *sim.Proc) { f.Write(p, 512*1024, 4*4096, c, Cached) }
	return func() {
		stalls := c.ThrottleStalls
		env.Spawn("big", big)
		env.Spawn("small", small)
		env.Run() // no driver: as in regionModel
		if c.ThrottleStalls != stalls+1 {
			panic("throttled-write model: other than one throttled write in a step")
		}
	}
}

// allocTable is the page cache's line of make allocs: one region write and
// one slot read under each I/O scheme, a region write and the punch of its
// three slots, two read misses that evict, and two cached writers, one of
// them throttled.
//
// Steady-state paging allocates nothing: resident pages are recycled through
// the spare list, the extent maps are at size, and neither the write charge,
// the read path nor a punch builds anything per call, nor a read miss that
// evicts past a dirty tail, nor one that evicts the clean tail: the
// resident-page table is sized for the cache. A throttled write costs only the
// events its park and release re-arm: the flusher's re-armed kick and the
// writeback completion's fresh wake-up event (2). The throttle's ticket is a
// number on the writer's stack and adds nothing.
var allocTable = []struct {
	name    string
	model   func(testing.TB) (step func())
	ceiling float64
}{
	{"WriteExtentsDirect", regionModel(Direct, regionWrite), 0},
	{"WriteExtentsCached", regionModel(Cached, regionWrite), 0},
	{"WriteExtentsMmap", regionModel(Mmap, regionWrite), 0},
	{"ReadDirect", regionModel(Direct, regionRead), 0},
	{"ReadCached", regionModel(Cached, regionRead), 0},
	{"ReadMmap", regionModel(Mmap, regionRead), 0},
	{"Punch", regionModel(Cached, regionPunch), 0},
	{"PunchDirect", regionModel(Direct, regionPunch), 0},
	{"PunchMmap", regionModel(Mmap, regionPunch), 0},
	{"ReadMissBehindDirtyTail", readMissBehindDirtyTail, 0},
	{"ReadMissEvict", readMissEvict, 0},
	{"ThrottledWrite", throttledWrites, 2},
}

// TestFileOpAllocationCeilings logs each row's name=count for make allocs.
func TestFileOpAllocationCeilings(t *testing.T) {
	for _, row := range allocTable {
		t.Run(row.name, func(t *testing.T) {
			step := row.model(t)
			step() // warm: pools, rings and maps at size
			got := testing.AllocsPerRun(200, step)
			if t.Logf("%s=%v", row.name, got); got > row.ceiling {
				t.Errorf("%s=%v, ceiling %v", row.name, got, row.ceiling)
			}
		})
	}
}

// BenchmarkAllocs runs allocTable's rows as sub-benchmarks.
func BenchmarkAllocs(b *testing.B) {
	for _, row := range allocTable {
		b.Run(row.name, func(b *testing.B) {
			step := row.model(b)
			step()
			b.ReportAllocs()
			for b.Loop() {
				step()
			}
		})
	}
}
