package hybridslab

import (
	"fmt"
	"testing"

	"hybridkv/internal/blockdev"
	"hybridkv/internal/pagecache"
	"hybridkv/internal/sim"
	"hybridkv/internal/slab"
)

// newManager builds a manager with memLimit RAM and an optional SSD.
func newManager(env *sim.Env, memLimit int64, policy IOPolicy, ssd bool, prof blockdev.Profile) *Manager {
	cfg := Config{
		Slab:   slab.Config{MemLimit: memLimit},
		Policy: policy,
	}
	var file *pagecache.File
	if ssd {
		dev := blockdev.New(env, prof, 8<<30)
		cache := pagecache.New(env, dev, pagecache.DefaultParams())
		file = cache.OpenFile(0, 4<<30)
	}
	return New(env, cfg, file)
}

func item(i, size int) *Item {
	return &Item{Key: fmt.Sprintf("key-%06d", i), Value: i, ValueSize: size}
}

func TestStoreAndLoadRAM(t *testing.T) {
	env := sim.NewEnv()
	m := newManager(env, 16<<20, PolicyDirect, false, blockdev.SATA())
	it := item(1, 32*1024)
	var got any
	env.Spawn("op", func(p *sim.Proc) {
		if err := m.Store(p, it); err != nil {
			t.Errorf("store: %v", err)
		}
		got, _ = m.Load(p, it)
	})
	env.Run()
	if got != 1 {
		t.Errorf("loaded %v, want 1", got)
	}
	if it.OnSSD() {
		t.Errorf("item on SSD with plenty of RAM")
	}
	if m.RAMItems() != 1 {
		t.Errorf("RAMItems=%d", m.RAMItems())
	}
}

func TestOversizeItemRejected(t *testing.T) {
	env := sim.NewEnv()
	m := newManager(env, 16<<20, PolicyDirect, false, blockdev.SATA())
	var err error
	env.Spawn("op", func(p *sim.Proc) {
		err = m.Store(p, item(1, 2<<20))
	})
	env.Run()
	if err != ErrTooLarge {
		t.Errorf("err=%v, want ErrTooLarge", err)
	}
}

func TestRAMOnlyEvictionDropsLRU(t *testing.T) {
	env := sim.NewEnv()
	m := newManager(env, 4<<20, PolicyDirect, false, blockdev.SATA())
	const n = 300 // 300 × 32KB ≈ 9.4 MB in 4 MB of RAM
	items := make([]*Item, n)
	env.Spawn("op", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			items[i] = item(i, 32*1024)
			if err := m.Store(p, items[i]); err != nil {
				t.Errorf("store %d: %v", i, err)
			}
		}
	})
	env.Run()
	if m.DropEvictions == 0 {
		t.Fatalf("no drop evictions with 2.3x overcommit")
	}
	if !items[0].Dropped() {
		t.Errorf("oldest item survived LRU drop")
	}
	if items[n-1].Dropped() {
		t.Errorf("newest item dropped")
	}
	var err error
	env.Spawn("get", func(p *sim.Proc) { _, err = m.Load(p, items[0]) })
	env.Run()
	if err != ErrDropped {
		t.Errorf("Load of dropped item err=%v, want ErrDropped", err)
	}
}

func TestHybridEvictionFlushesToSSD(t *testing.T) {
	env := sim.NewEnv()
	m := newManager(env, 4<<20, PolicyDirect, true, blockdev.SATA())
	const n = 300
	items := make([]*Item, n)
	env.Spawn("op", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			items[i] = item(i, 32*1024)
			m.Store(p, items[i])
		}
	})
	env.Run()
	if m.FlushPages == 0 {
		t.Fatalf("no slab flushes despite overcommit")
	}
	if m.DropEvictions != 0 {
		t.Errorf("%d drops with a large SSD", m.DropEvictions)
	}
	if !items[0].OnSSD() {
		t.Errorf("oldest item not on SSD")
	}
	if m.RAMItems()+m.SSDItems() != n {
		t.Errorf("RAM %d + SSD %d != %d", m.RAMItems(), m.SSDItems(), n)
	}
	// High data retention: everything still loadable.
	var miss int
	env.Spawn("get", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			v, err := m.Load(p, items[i])
			if err != nil || v != i {
				miss++
			}
		}
	})
	env.Run()
	if miss != 0 {
		t.Errorf("%d of %d items unreadable from hybrid memory", miss, n)
	}
}

func TestSSDLoadSlowerThanRAMLoad(t *testing.T) {
	env := sim.NewEnv()
	m := newManager(env, 4<<20, PolicyDirect, true, blockdev.SATA())
	const n = 300
	items := make([]*Item, n)
	var ramT, ssdT sim.Time
	var wasOnSSD bool
	env.Spawn("op", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			items[i] = item(i, 32*1024)
			m.Store(p, items[i])
		}
		// items[n-1] is in RAM; items[0] is on SSD.
		wasOnSSD = items[0].OnSSD()
		t0 := p.Now()
		m.Load(p, items[n-1])
		ramT = p.Now() - t0
		t0 = p.Now()
		m.Load(p, items[0])
		ssdT = p.Now() - t0
	})
	env.Run()
	if !wasOnSSD || items[n-1].OnSSD() {
		t.Fatalf("placement unexpected: old wasOnSSD=%v new onSSD=%v", wasOnSSD, items[n-1].OnSSD())
	}
	if float64(ssdT)/float64(ramT) < 10 {
		t.Errorf("SSD load %v vs RAM load %v: want ≥10x gap", ssdT, ramT)
	}
	// Fatcache semantics: the item stays on the SSD after the load (no
	// write-amplifying promotion churn).
	if !items[0].OnSSD() {
		t.Errorf("loaded item left the SSD")
	}
	if m.SSDLoads == 0 {
		t.Errorf("SSD load counter not incremented")
	}
}

func TestAdaptiveFlushFasterThanDirect(t *testing.T) {
	// The headline server-side claim: adaptive I/O cuts eviction cost.
	run := func(policy IOPolicy) sim.Time {
		env := sim.NewEnv()
		m := newManager(env, 4<<20, policy, true, blockdev.SATA())
		env.Spawn("op", func(p *sim.Proc) {
			for i := 0; i < 300; i++ {
				m.Store(p, item(i, 32*1024))
			}
		})
		end := env.Run()
		if m.FlushPages == 0 {
			t.Fatalf("policy %v: no flushes", policy)
		}
		return end
	}
	direct, adaptive := run(PolicyDirect), run(PolicyAdaptive)
	if float64(direct)/float64(adaptive) < 2 {
		t.Errorf("direct %v vs adaptive %v: want ≥2x improvement", direct, adaptive)
	}
}

func TestAdaptiveSchemeSelection(t *testing.T) {
	env := sim.NewEnv()
	m := newManager(env, 64<<20, PolicyAdaptive, true, blockdev.SATA())
	smallClass, _ := m.alloc.ClassFor(2048)
	largeClass, _ := m.alloc.ClassFor(256 * 1024)
	if s := m.flushScheme(smallClass); s != pagecache.Mmap {
		t.Errorf("small class flush scheme %v, want mmap", s)
	}
	if s := m.flushScheme(largeClass); s != pagecache.Cached {
		t.Errorf("large class flush scheme %v, want cached", s)
	}
	// Direct policy always direct.
	m2 := newManager(env, 64<<20, PolicyDirect, true, blockdev.SATA())
	if s := m2.flushScheme(smallClass); s != pagecache.Direct {
		t.Errorf("direct policy scheme %v", s)
	}
}

func TestTouchProtectsFromEviction(t *testing.T) {
	env := sim.NewEnv()
	m := newManager(env, 4<<20, PolicyDirect, true, blockdev.SATA())
	items := make([]*Item, 130)
	env.Spawn("op", func(p *sim.Proc) {
		for i := 0; i < 80; i++ { // ≈2.6 MB: fits in 4 MB, no eviction yet
			items[i] = item(i, 32*1024)
			m.Store(p, items[i])
		}
		m.Touch(items[0])           // promote the oldest
		for i := 80; i < 130; i++ { // small overflow: ~2 pages evicted
			items[i] = item(i, 32*1024)
			m.Store(p, items[i])
		}
	})
	env.Run()
	if items[0].OnSSD() {
		t.Errorf("touched item was evicted while colder items remained")
	}
	if !items[1].OnSSD() {
		t.Errorf("untouched cold item not evicted")
	}
}

func TestReleaseFreesRAMChunk(t *testing.T) {
	env := sim.NewEnv()
	m := newManager(env, 16<<20, PolicyDirect, false, blockdev.SATA())
	it := item(1, 32*1024)
	env.Spawn("op", func(p *sim.Proc) {
		m.Store(p, it)
		cls := it.class
		used := m.Allocator().Class(cls).UsedChunks
		m.Release(it)
		if got := m.Allocator().Class(cls).UsedChunks; got != used-1 {
			t.Errorf("used chunks %d after release, want %d", got, used-1)
		}
	})
	env.Run()
	if m.RAMItems() != 0 {
		t.Errorf("RAMItems=%d after release", m.RAMItems())
	}
}

func TestReleaseSSDItemReclaimsPages(t *testing.T) {
	env := sim.NewEnv()
	m := newManager(env, 4<<20, PolicyDirect, true, blockdev.SATA())
	const n = 300
	items := make([]*Item, n)
	env.Spawn("op", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			items[i] = item(i, 32*1024)
			m.Store(p, items[i])
		}
	})
	env.Run()
	before := m.SSDUsed()
	if before == 0 {
		t.Fatalf("nothing on SSD")
	}
	for _, it := range items {
		if it.OnSSD() {
			m.Release(it)
		}
	}
	if m.SSDUsed() != 0 {
		t.Errorf("SSDUsed=%d after releasing every SSD item, want 0", m.SSDUsed())
	}
	if m.SSDItems() != 0 {
		t.Errorf("SSDItems=%d after release", m.SSDItems())
	}
}

func TestSSDCapacityOverflowDrops(t *testing.T) {
	env := sim.NewEnv()
	cfg := Config{
		Slab:        slab.Config{MemLimit: 2 << 20},
		Policy:      PolicyDirect,
		SSDCapacity: 4 << 20,
	}
	dev := blockdev.New(env, blockdev.SATA(), 8<<30)
	cache := pagecache.New(env, dev, pagecache.DefaultParams())
	m := New(env, cfg, cache.OpenFile(0, 8<<30))
	env.Spawn("op", func(p *sim.Proc) {
		for i := 0; i < 600; i++ { // ~19 MB into 2 MB RAM + 4 MB SSD
			m.Store(p, item(i, 32*1024))
		}
	})
	env.Run()
	if m.DropEvictions == 0 {
		t.Errorf("no drops despite SSD capacity overflow")
	}
	if m.SSDUsed() > 4<<20 {
		t.Errorf("SSDUsed %d exceeds capacity", m.SSDUsed())
	}
}

func TestNVMeFlushFasterThanSATA(t *testing.T) {
	run := func(prof blockdev.Profile) sim.Time {
		env := sim.NewEnv()
		m := newManager(env, 4<<20, PolicyDirect, true, prof)
		env.Spawn("op", func(p *sim.Proc) {
			for i := 0; i < 300; i++ {
				m.Store(p, item(i, 32*1024))
			}
		})
		return env.Run()
	}
	if sata, nvme := run(blockdev.SATA()), run(blockdev.NVMe()); nvme >= sata {
		t.Errorf("NVMe run %v not faster than SATA %v", nvme, sata)
	}
}

// Property-style consistency check after a mixed workload.
func TestAccountingConsistencyAfterChurn(t *testing.T) {
	env := sim.NewEnv()
	m := newManager(env, 4<<20, PolicyAdaptive, true, blockdev.SATA())
	live := make(map[int]*Item)
	env.Spawn("op", func(p *sim.Proc) {
		seq := 0
		for round := 0; round < 6; round++ {
			for i := 0; i < 60; i++ {
				it := item(seq, 8*1024+(seq%5)*7000)
				m.Store(p, it)
				live[seq] = it
				seq++
			}
			// Delete every 3rd item of the previous round.
			for k, it := range live {
				if k%3 == 0 && !it.Dropped() {
					m.Release(it)
					delete(live, k)
				}
			}
		}
	})
	env.Run()
	ram, ssd, dropped := 0, 0, 0
	for _, it := range live {
		switch {
		case it.Dropped():
			dropped++
		case it.OnSSD():
			ssd++
		default:
			ram++
		}
	}
	if ram != m.RAMItems() {
		t.Errorf("live RAM items %d, manager says %d", ram, m.RAMItems())
	}
	if ssd != m.SSDItems() {
		t.Errorf("live SSD items %d, manager says %d", ssd, m.SSDItems())
	}
	if int64(dropped) != m.DropEvictions {
		t.Errorf("dropped %d, manager says %d", dropped, m.DropEvictions)
	}
}

func TestAsyncFlushOffloadsEviction(t *testing.T) {
	// Write-behind eviction: the allocating request should not pay the
	// SSD write; the background flusher does, and all items stay live.
	mk := func(async bool) (*Manager, *sim.Env) {
		env := sim.NewEnv()
		dev := blockdev.New(env, blockdev.SATA(), 8<<30)
		cache := pagecache.New(env, dev, pagecache.DefaultParams())
		m := New(env, Config{
			Slab:       slab.Config{MemLimit: 4 << 20},
			Policy:     PolicyDirect, // sync flushes pay the direct-I/O barrier
			AsyncFlush: async,
		}, cache.OpenFile(0, 4<<30))
		return m, env
	}
	run := func(async bool) (sim.Time, *Manager) {
		m, env := mk(async)
		var elapsed sim.Time
		env.Spawn("op", func(p *sim.Proc) {
			t0 := p.Now()
			for i := 0; i < 300; i++ {
				m.Store(p, item(i, 32*1024))
			}
			elapsed = p.Now() - t0
		})
		env.Run()
		return elapsed, m
	}
	syncT, _ := run(false)
	asyncT, m := run(true)
	if float64(syncT)/float64(asyncT) < 3 {
		t.Errorf("write-behind stores %v not ≥3x faster than sync-flush %v", asyncT, syncT)
	}
	if m.FlushPages == 0 {
		t.Errorf("background flusher never ran")
	}
	if m.RAMItems()+m.SSDItems() != 300 {
		t.Errorf("items lost in write-behind: ram=%d ssd=%d", m.RAMItems(), m.SSDItems())
	}
}

func TestAsyncFlushItemsReadableDuringTransit(t *testing.T) {
	env := sim.NewEnv()
	dev := blockdev.New(env, blockdev.SATA(), 8<<30)
	cache := pagecache.New(env, dev, pagecache.DefaultParams())
	m := New(env, Config{
		Slab:       slab.Config{MemLimit: 4 << 20},
		Policy:     PolicyAdaptive,
		AsyncFlush: true,
	}, cache.OpenFile(0, 4<<30))
	items := make([]*Item, 300)
	bad := 0
	env.Spawn("op", func(p *sim.Proc) {
		for i := 0; i < 300; i++ {
			items[i] = item(i, 32*1024)
			m.Store(p, items[i])
			// Immediately read an older key that may be staged or placed.
			if i > 50 {
				v, err := m.Load(p, items[i-50])
				if err != nil || v != i-50 {
					bad++
				}
			}
		}
	})
	env.Run()
	if bad != 0 {
		t.Errorf("%d reads of staged/placed items returned wrong data", bad)
	}
}

func TestAsyncFlushBoundedStaging(t *testing.T) {
	env := sim.NewEnv()
	dev := blockdev.New(env, blockdev.SATA(), 8<<30)
	cache := pagecache.New(env, dev, pagecache.DefaultParams())
	m := New(env, Config{
		Slab:            slab.Config{MemLimit: 4 << 20},
		Policy:          PolicyDirect,
		AsyncFlush:      true,
		AsyncFlushDepth: 1, // single staging slot: producers must stall
	}, cache.OpenFile(0, 4<<30))
	env.Spawn("op", func(p *sim.Proc) {
		for i := 0; i < 300; i++ {
			m.Store(p, item(i, 32*1024))
		}
	})
	end := env.Run()
	// With one slot and direct-I/O flushes (~5.5ms each), sustained
	// overcommit must have stalled on the staging bound: the run cannot
	// be faster than (flushes-1) sequential device writes.
	minTime := sim.Time(m.FlushPages-1) * blockdev.SATA().WriteTime(1<<20)
	if end < minTime {
		t.Errorf("run finished in %v, below the bounded-staging floor %v", end, minTime)
	}
}

func TestCorruptSSDExtentReadsAsMiss(t *testing.T) {
	// Failure injection: dropping an SSD extent under a live item models an
	// uncorrectable read; the Load must retire the item, not panic, and
	// the arena slot must be reclaimable.
	env := sim.NewEnv()
	m := newManager(env, 4<<20, PolicyDirect, true, blockdev.SATA())
	const n = 300
	items := make([]*Item, n)
	env.Spawn("load", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			items[i] = item(i, 32*1024)
			m.Store(p, items[i])
		}
	})
	env.Run()
	victim := items[0]
	if !victim.OnSSD() {
		t.Fatalf("victim not on SSD")
	}
	m.file.Discard(victim.ssdOff) // inject corruption
	var err error
	env.Spawn("get", func(p *sim.Proc) { _, err = m.Load(p, victim) })
	env.Run()
	if err != ErrDropped {
		t.Fatalf("corrupt load err=%v, want ErrDropped", err)
	}
	if !victim.Dropped() || m.CorruptLoads != 1 {
		t.Errorf("dropped=%v corruptLoads=%d", victim.Dropped(), m.CorruptLoads)
	}
	// Other SSD items are unaffected.
	var v any
	env.Spawn("get2", func(p *sim.Proc) { v, err = m.Load(p, items[1]) })
	env.Run()
	if err != nil || v != 1 {
		t.Errorf("healthy item load (%v,%v)", v, err)
	}
}

// deadBytes is the arena space that is neither a live SSD item nor a pooled
// free region: the freed slots inside pages that still hold live items.
func deadBytes(m *Manager) int64 {
	dead := m.ssdNext
	for e := m.ssdLRU.Back(); e != nil; e = e.Prev() {
		dead -= int64(m.alloc.ChunkSize(e.Value.class))
	}
	for size, offs := range m.ssdFree {
		dead -= size * int64(len(offs))
	}
	return dead
}

func TestCompactReclaimsDeadSpace(t *testing.T) {
	env := sim.NewEnv()
	m := newManager(env, 4<<20, PolicyAdaptive, true, blockdev.SATA())
	const n = 300
	items := make([]*Item, n)
	env.Spawn("load", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			items[i] = item(i, 32*1024)
			m.Store(p, items[i])
		}
	})
	env.Run()
	// Kill two thirds of each flushed region.
	killed := 0
	for i, it := range items {
		if it.OnSSD() && i%3 != 0 {
			m.Release(it)
			killed++
		}
	}
	before := deadBytes(m)
	if before <= 0 {
		t.Fatalf("no fragmentation to compact (killed=%d)", killed)
	}
	var reclaimed int64
	env.Spawn("compact", func(p *sim.Proc) { reclaimed = m.Compact(p, 0.5) })
	env.Run()
	if reclaimed == 0 || m.Compactions == 0 {
		t.Fatalf("compaction reclaimed nothing (dead was %d)", before)
	}
	if after := deadBytes(m); after >= before {
		t.Errorf("dead bytes %d -> %d, want a reduction", before, after)
	}
	// Every surviving item is still readable with its original value.
	bad := 0
	env.Spawn("verify", func(p *sim.Proc) {
		for i, it := range items {
			if it.Dropped() {
				continue
			}
			v, err := m.Load(p, it)
			if err != nil || v != i {
				bad++
			}
		}
	})
	env.Run()
	if bad != 0 {
		t.Errorf("%d items unreadable after compaction", bad)
	}
}

func TestCompactSkipsDenseRegions(t *testing.T) {
	env := sim.NewEnv()
	m := newManager(env, 4<<20, PolicyAdaptive, true, blockdev.SATA())
	items := make([]*Item, 300)
	env.Spawn("load", func(p *sim.Proc) {
		for i := 0; i < 300; i++ {
			items[i] = item(i, 32*1024)
			m.Store(p, items[i])
		}
	})
	env.Run()
	var reclaimed int64
	env.Spawn("compact", func(p *sim.Proc) { reclaimed = m.Compact(p, 0.5) })
	env.Run()
	if reclaimed != 0 || m.Compactions != 0 {
		t.Errorf("compaction touched dense regions: reclaimed=%d n=%d", reclaimed, m.Compactions)
	}
}
