package hybridslab

import (
	"testing"

	"hybridkv/internal/blockdev"
	"hybridkv/internal/pagecache"
	"hybridkv/internal/sim"
	"hybridkv/internal/slab"
)

// evictRig is a 4 MB direct-I/O manager held in its overcommitted steady
// state: RAM is full of 32 KB items of one class, so storing one more slab
// page of them evicts exactly one page of the oldest. A step stores `pages`
// pages (inside one coalescing window when windowed, so their evictions
// merge into one write), then releases what it evicted: the Item structs are
// reused by the next step, and a lone eviction's region comes back out of
// the free pool.
type evictRig struct {
	env     *sim.Env
	m       *Manager
	ring    []*Item // RAM residents oldest first from head, then the spares
	head    int
	perPage int
	run     func(*sim.Proc)
}

func newEvictRig(pages int, windowed bool) *evictRig {
	r := &evictRig{env: sim.NewEnv()}
	// A merged run is bump-allocated and never reuses the pool, so the arena
	// is sized for any step count a benchmark asks for.
	const arena = 1 << 40
	cache := pagecache.New(r.env, blockdev.New(r.env, blockdev.SATA(), arena), pagecache.DefaultParams())
	r.m = New(r.env, Config{Slab: slab.Config{MemLimit: 4 << 20}, Policy: PolicyDirect}, cache.OpenFile(0, arena))
	class, _ := r.m.alloc.ClassFor(32*1024 + len(item(0, 0).Key) + itemOverhead)
	r.perPage = r.m.alloc.Class(class).ChunksPage
	resident, batch := 4*r.perPage, pages*r.perPage
	r.ring = make([]*Item, resident+batch)
	for i := range r.ring {
		r.ring[i] = item(i, 32*1024)
	}
	r.env.Spawn("fill", func(p *sim.Proc) {
		for _, it := range r.ring[:resident] {
			r.m.Store(p, it)
		}
	})
	r.env.Run()
	if r.m.FlushPages != 0 || r.m.RAMItems() != resident {
		panic("evictRig: the fill was meant to fill RAM exactly")
	}
	r.run = func(p *sim.Proc) {
		n := len(r.ring)
		if windowed {
			r.m.BeginEvictionBatch(p)
		}
		for i := 0; i < batch; i++ {
			it := r.ring[(r.head+resident+i)%n]
			*it = Item{Key: it.Key, Value: i, ValueSize: 32 * 1024}
			if err := r.m.Store(p, it); err != nil {
				panic(err)
			}
		}
		if windowed {
			r.m.EndEvictionBatch(p)
		}
		for i := 0; i < batch; i++ {
			it := r.ring[(r.head+i)%n]
			if !it.OnSSD() {
				panic("evictRig: the oldest page was not the one evicted")
			}
			r.m.Release(it)
		}
		r.head = (r.head + batch) % n
	}
	return r
}

func (r *evictRig) step() {
	r.env.Spawn("step", r.run)
	r.env.Run()
}

// loadModel returns a step that Loads one SSD-resident 32 KB item in place.
func loadModel() (step func()) {
	env := sim.NewEnv()
	m := newManager(env, 4<<20, PolicyDirect, true, blockdev.SATA())
	items := make([]*Item, 300)
	env.Spawn("fill", func(p *sim.Proc) {
		for i := range items {
			items[i] = item(i, 32*1024)
			m.Store(p, items[i])
		}
	})
	env.Run()
	load := func(p *sim.Proc) {
		if v, err := m.Load(p, items[0]); err != nil || v != 0 {
			panic("loadModel: SSD load failed")
		}
	}
	return func() { env.Spawn("load", load); env.Run() }
}

func benchSteps(b *testing.B, step func()) {
	step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// The host cost of the region writer: one synchronous eviction of a full slab
// page (its Stores included, one region write), a coalescing window of one
// and of four pages (four regions, one merged write), and one in-place SSD
// Load.
func BenchmarkEvictPage(b *testing.B)      { benchSteps(b, newEvictRig(1, false).step) }
func BenchmarkEvictWindowOf1(b *testing.B) { benchSteps(b, newEvictRig(1, true).step) }
func BenchmarkEvictWindowOf4(b *testing.B) { benchSteps(b, newEvictRig(4, true).step) }
func BenchmarkLoadFromSSD(b *testing.B)    { benchSteps(b, loadModel()) }

// What the region writer allocates, the page's Stores included (they allocate
// nothing: the rig reuses its Items). One page of 30 victims is 8: the victim
// slice, sized once (1), the region's slot records, one array (1), and the
// region's header, its slot summaries, the extent slice, the commit record,
// the arena page and the flush-done event (6). A window adds itself and its
// job list (10); a window of four writes four such regions with one extent
// slice, and its job list is allocated three times as it grows (33). An SSD
// Load allocates nothing.
// They were 42, 44 and 169 while the victim slice grew by appending and
// every slot record was allocated on its own.
func TestRegionWriterAllocationCeilings(t *testing.T) {
	for _, tc := range []struct {
		name    string
		step    func()
		ceiling float64
	}{
		{"synchronous eviction of one page", newEvictRig(1, false).step, 8},
		{"window of one page", newEvictRig(1, true).step, 10},
		{"window of four pages", newEvictRig(4, true).step, 33},
		{"SSD load", loadModel(), 0},
	} {
		tc.step()
		if got := testing.AllocsPerRun(100, tc.step); got > tc.ceiling {
			t.Errorf("one %s: %v allocations, ceiling %v", tc.name, got, tc.ceiling)
		}
	}
}
