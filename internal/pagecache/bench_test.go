package pagecache

import (
	"testing"

	"hybridkv/internal/blockdev"
	"hybridkv/internal/sim"
)

// regionModel returns three steps over a file of 64 slab-page-like regions
// (a 512-byte header and three 32 KB slots each): write rewrites the next
// region with one WriteExtents under the scheme, read fetches one slot of the
// next region, punch rewrites the next region and punches its three slots
// (seven whole pages each). The file is eight times the cache, so in steady
// state the reads miss and the writes fault and evict.
func regionModel(tb testing.TB, scheme Scheme) (write, read, punch func()) {
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
	// The steps run no rig: allocations are the subject, and a step left
	// parked would make the next Spawn build a fresh coroutine, which the
	// ceilings count.
	return func() { env.Spawn("write", doWrite); env.Run() }, // no driver: see above
		func() { env.Spawn("read", doRead); env.Run() }, // no driver: see above
		func() { env.Spawn("punch", doPunch); env.Run() } // no driver: see above
}

func benchSteps(b *testing.B, step func()) {
	step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

func benchScheme(b *testing.B, scheme Scheme, reads bool) {
	write, read, _ := regionModel(b, scheme)
	if reads {
		write = read
	}
	benchSteps(b, write)
}

// The host cost of one region write and one slot read under each I/O scheme.
func BenchmarkWriteExtentsDirect(b *testing.B) { benchScheme(b, Direct, false) }
func BenchmarkWriteExtentsCached(b *testing.B) { benchScheme(b, Cached, false) }
func BenchmarkWriteExtentsMmap(b *testing.B)   { benchScheme(b, Mmap, false) }
func BenchmarkReadDirect(b *testing.B)         { benchScheme(b, Direct, true) }
func BenchmarkReadCached(b *testing.B)         { benchScheme(b, Cached, true) }
func BenchmarkReadMmap(b *testing.B)           { benchScheme(b, Mmap, true) }

// The host cost of a cached region write and the punch of its three slots.
func BenchmarkPunch(b *testing.B) {
	_, _, punch := regionModel(b, Cached)
	benchSteps(b, punch)
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

// The host cost of a read miss that evicts past a dirty tail.
func BenchmarkReadMissBehindDirtyTail(b *testing.B) { benchSteps(b, readMissBehindDirtyTail(b)) }

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

// The host cost of a read miss that evicts the clean tail.
func BenchmarkReadMissEvict(b *testing.B) { benchSteps(b, readMissEvict(b)) }

// throttledWrites returns a step in which two writers make cached writes
// to resident pages of a cache that starts clean: a 576 KB write that
// leaves the dirty set above ThrottlePages, parks and is released by the
// writeback command its overshoot starts, and a 16 KB one that does not.
func throttledWrites() (step func(), c *Cache) {
	env := sim.NewEnv()
	par := DefaultParams()
	par.MaxPages = 256
	par.DirtyHighPages, par.ThrottlePages = 64, 128
	c = New(env, blockdev.New(env, blockdev.NVMe(), 1<<30), par)
	f := c.OpenFile(0, 1<<20)
	big := func(p *sim.Proc) { f.Write(p, 0, 144*4096, c, Cached) }
	small := func(p *sim.Proc) { f.Write(p, 512*1024, 4*4096, c, Cached) }
	return func() { env.Spawn("big", big); env.Spawn("small", small); env.Run() }, c // no driver: as in regionModel
}

// The host cost of two cached writers, one of them throttled.
func BenchmarkThrottledWrite(b *testing.B) {
	step, _ := throttledWrites()
	benchSteps(b, step)
}

// throttledWriteCeiling is throttledWrites' step: the flusher's re-armed
// kick and the writeback completion's fresh wake-up event. The throttle's
// ticket is a number on the writer's stack and adds nothing.
const throttledWriteCeiling = 2

// Steady-state paging allocates nothing: resident pages are recycled through
// the spare list, the extent maps are at size, and neither the write charge,
// the read path nor a punch builds anything per call, nor a read miss that
// evicts past a dirty tail. A throttled write costs only the events its park
// and release re-arm (throttledWriteCeiling). Nor does a read miss that
// evicts the clean tail: the resident-page table is sized for the cache.
func TestFileOpAllocationCeilings(t *testing.T) {
	for _, scheme := range []Scheme{Direct, Cached, Mmap} {
		write, read, punch := regionModel(t, scheme)
		for _, tc := range []struct {
			name string
			step func()
		}{{"WriteExtents", write}, {"Read", read}, {"Punch", punch}} {
			tc.step()
			if got := testing.AllocsPerRun(200, tc.step); got > 0 {
				t.Errorf("one %s %s: %v allocations, ceiling 0", scheme, tc.name, got)
			}
		}
	}
	miss := readMissBehindDirtyTail(t)
	miss()
	if got := testing.AllocsPerRun(200, miss); got > 0 {
		t.Errorf("one cached read miss behind a dirty tail: %v allocations, ceiling 0", got)
	}
	evict := readMissEvict(t)
	evict()
	if got := testing.AllocsPerRun(200, evict); got > 0 {
		t.Errorf("one cached read miss that evicts the clean tail: %v allocations, ceiling 0", got)
	}
	step, c := throttledWrites()
	step()
	stalls := c.ThrottleStalls
	got := testing.AllocsPerRun(200, step)
	if parks := c.ThrottleStalls - stalls; parks != 201 {
		t.Fatalf("%d throttled writes in 201 steps, want one per step", parks)
	}
	if got > throttledWriteCeiling {
		t.Errorf("two cached writers, one throttled: %v allocations, ceiling %d", got, throttledWriteCeiling)
	}
}
