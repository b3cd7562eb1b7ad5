package pagecache

import (
	"testing"

	"hybridkv/internal/blockdev"
	"hybridkv/internal/sim"
)

func newCache(prof blockdev.Profile) (*sim.Env, *Cache) {
	env := sim.NewEnv()
	dev := blockdev.New(env, prof, 8<<30)
	return env, New(env, dev, DefaultParams())
}

// timeOp measures the virtual time one operation takes inside a process.
func timeOp(t *testing.T, env *sim.Env, fn func(p *sim.Proc)) sim.Time {
	var d sim.Time
	sim.Drive(t, env, "op", func(p *sim.Proc) {
		t0 := p.Now()
		fn(p)
		d = p.Now() - t0
	})
	return d
}

func TestDirectWritePaysDeviceLatency(t *testing.T) {
	env, c := newCache(blockdev.SATA())
	f := c.OpenFile(0, 1<<30)
	d := timeOp(t, env, func(p *sim.Proc) {
		f.Write(p, 0, 1<<20, "slab", Direct)
	})
	min := blockdev.SATA().WriteTime(1 << 20)
	if d < min {
		t.Errorf("direct 1MB write %v, below device time %v", d, min)
	}
}

func TestCachedWriteMuchFasterThanDirect(t *testing.T) {
	env, c := newCache(blockdev.SATA())
	f := c.OpenFile(0, 1<<30)
	var direct, cached sim.Time
	sim.Drive(t, env, "op", func(p *sim.Proc) {
		t0 := p.Now()
		f.Write(p, 0, 1<<20, "a", Direct)
		direct = p.Now() - t0
		t0 = p.Now()
		f.Write(p, 1<<20, 1<<20, "b", Cached)
		cached = p.Now() - t0
	})
	if float64(direct)/float64(cached) < 5 {
		t.Errorf("direct %v vs cached %v: want ≥5x gap for 1MB", direct, cached)
	}
}

func TestMmapWarmWriteBeatsCachedSmall(t *testing.T) {
	// After first touch, a small mmap write is pure memcpy (no syscall),
	// so it must beat cached I/O — the paper's reason to mmap small slabs.
	env, c := newCache(blockdev.SATA())
	f := c.OpenFile(0, 1<<30)
	var mm, ca sim.Time
	sim.Drive(t, env, "op", func(p *sim.Proc) {
		f.Write(p, 0, 4096, "warmup", Mmap) // fault in the page
		t0 := p.Now()
		f.Write(p, 0, 4096, "x", Mmap)
		mm = p.Now() - t0
		t0 = p.Now()
		f.Write(p, 1<<20, 4096, "y", Cached)
		ca = p.Now() - t0
	})
	if mm >= ca {
		t.Errorf("warm 4KB mmap write %v not faster than cached %v", mm, ca)
	}
}

func TestCachedBeatsMmapLargeCold(t *testing.T) {
	// A cold 1MB mmap write faults 256 pages; cached I/O pays one syscall.
	env, c := newCache(blockdev.SATA())
	f := c.OpenFile(0, 1<<30)
	var mm, ca sim.Time
	sim.Drive(t, env, "op", func(p *sim.Proc) {
		t0 := p.Now()
		f.Write(p, 0, 1<<20, "m", Mmap)
		mm = p.Now() - t0
		t0 = p.Now()
		f.Write(p, 16<<20, 1<<20, "c", Cached)
		ca = p.Now() - t0
	})
	if ca >= mm {
		t.Errorf("cold 1MB: cached %v not faster than mmap %v", ca, mm)
	}
}

func TestSchemeOrderingMatchesFigure4(t *testing.T) {
	// Paper Fig. 4 shape: for small evictions mmap wins; for large ones
	// cached wins; direct is worst everywhere. Small slab classes keep a
	// compact mmap arena whose pages stay resident (warm); large-class
	// evictions sweep a footprint far beyond the page cache (cold).
	measure := func(size int, s Scheme, warm bool) sim.Time {
		env, c := newCache(blockdev.SATA())
		f := c.OpenFile(0, 1<<30)
		var d sim.Time
		sim.Drive(t, env, "op", func(p *sim.Proc) {
			if warm && s == Mmap {
				f.Write(p, 0, size, "warm", s)
			}
			t0 := p.Now()
			f.Write(p, 0, size, "v", s)
			d = p.Now() - t0
		})
		return d
	}
	small := 2048
	large := 1 << 20
	if !(measure(small, Mmap, true) < measure(small, Cached, true) &&
		measure(small, Cached, true) < measure(small, Direct, true)) {
		t.Errorf("small writes: want mmap < cached < direct; got mmap=%v cached=%v direct=%v",
			measure(small, Mmap, true), measure(small, Cached, true), measure(small, Direct, true))
	}
	if !(measure(large, Cached, false) < measure(large, Mmap, false) &&
		measure(large, Mmap, false) < measure(large, Direct, false)) {
		t.Errorf("large writes: want cached < mmap < direct; got cached=%v mmap=%v direct=%v",
			measure(large, Cached, false), measure(large, Mmap, false), measure(large, Direct, false))
	}
}

func TestCachedReadHitVsMiss(t *testing.T) {
	env, c := newCache(blockdev.SATA())
	f := c.OpenFile(0, 1<<30)
	var missT, hitT sim.Time
	var v1, v2 any
	sim.Drive(t, env, "op", func(p *sim.Proc) {
		f.Write(p, 0, 32*1024, "item", Direct) // on device, not resident
		t0 := p.Now()
		v1, _ = f.Read(p, 0, 32*1024, Cached)
		missT = p.Now() - t0
		t0 = p.Now()
		v2, _ = f.Read(p, 0, 32*1024, Cached)
		hitT = p.Now() - t0
	})
	if v1 != "item" || v2 != "item" {
		t.Errorf("read payloads %v/%v", v1, v2)
	}
	if missT < blockdev.SATA().ReadTime(32*1024) {
		t.Errorf("miss read %v below device read time", missT)
	}
	if float64(missT)/float64(hitT) < 10 {
		t.Errorf("miss %v vs hit %v: want ≥10x gap", missT, hitT)
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", c.Hits, c.Misses)
	}
}

func TestReadOfUnwrittenExtent(t *testing.T) {
	env, c := newCache(blockdev.NVMe())
	f := c.OpenFile(0, 1<<20)
	var ok bool
	sim.Drive(t, env, "op", func(p *sim.Proc) { _, ok = f.Read(p, 0, 4096, Cached) })
	if ok {
		t.Errorf("read of never-written extent reported ok")
	}
}

func TestDirtyThrottlingStallsWriters(t *testing.T) {
	env := sim.NewEnv()
	dev := blockdev.New(env, blockdev.SATA(), 8<<30)
	par := DefaultParams()
	par.DirtyHighPages = 64
	par.ThrottlePages = 128
	c := New(env, dev, par)
	f := c.OpenFile(0, 4<<30)
	sim.Drive(t, env, "writer", func(p *sim.Proc) {
		for i := 0; i < 4096; i++ {
			f.Write(p, int64(i)*4096, 4096, i, Cached)
		}
	})
	if c.ThrottleStalls == 0 {
		t.Errorf("sustained cached writes never hit dirty throttling")
	}
	if c.WritebackPages == 0 {
		t.Errorf("flusher never wrote back")
	}
}

func TestWritebackDrainsDirtyPages(t *testing.T) {
	env, c := newCache(blockdev.NVMe())
	f := c.OpenFile(0, 1<<30)
	sim.Drive(t, env, "writer", func(p *sim.Proc) {
		for i := 0; i < int(int64(c.Params().DirtyHighPages)+100); i++ {
			f.Write(p, int64(i)*4096, 4096, i, Cached)
		}
	})
	if c.Dirty() > c.Params().DirtyHighPages {
		t.Errorf("dirty pages %d still above high watermark %d after idle",
			c.Dirty(), c.Params().DirtyHighPages)
	}
}

func TestEvictionBoundsResidency(t *testing.T) {
	env := sim.NewEnv()
	dev := blockdev.New(env, blockdev.NVMe(), 8<<30)
	par := DefaultParams()
	par.MaxPages = 100
	par.DirtyHighPages = 20
	par.ThrottlePages = 50
	c := New(env, dev, par)
	f := c.OpenFile(0, 4<<30)
	sim.Drive(t, env, "writer", func(p *sim.Proc) {
		for i := 0; i < 1000; i++ {
			f.Write(p, int64(i)*4096, 4096, i, Cached)
		}
	})
	if c.resident > 100 {
		t.Errorf("resident pages %d exceed MaxPages 100", c.resident)
	}
}

func TestMmapColdReadFaults(t *testing.T) {
	env, c := newCache(blockdev.SATA())
	f := c.OpenFile(0, 1<<30)
	var v any
	sim.Drive(t, env, "op", func(p *sim.Proc) {
		f.Write(p, 0, 64*1024, "blob", Direct) // on device only
		v, _ = f.Read(p, 0, 64*1024, Mmap)
	})
	if v != "blob" {
		t.Errorf("mmap read returned %v", v)
	}
	if c.Faults < 16 {
		t.Errorf("cold 64KB mmap read faulted %d pages, want ≥16", c.Faults)
	}
}

func TestOutOfFilePanics(t *testing.T) {
	env, c := newCache(blockdev.SATA())
	f := c.OpenFile(0, 8192)
	defer func() {
		if recover() == nil {
			t.Errorf("out-of-file access did not panic")
		}
	}()
	sim.Drive(t, env, "op", func(p *sim.Proc) { f.Write(p, 4096, 8192, nil, Cached) })
}

func TestDiscardDropsExtent(t *testing.T) {
	env, c := newCache(blockdev.NVMe())
	f := c.OpenFile(0, 1<<20)
	var ok bool
	sim.Drive(t, env, "op", func(p *sim.Proc) {
		f.Write(p, 0, 4096, "x", Cached)
		f.Discard(0)
		_, ok = f.Read(p, 0, 4096, Cached)
	})
	if ok {
		t.Errorf("read after Discard reported ok")
	}
}

// TestEvictionIsLRUAndRecyclesPages reads a working set that fits, touches
// its first half again, then faults in as many new pages as the half that
// was not touched: exactly that colder half must be evicted, in order, and
// the new pages must reuse the evicted page records rather than allocate.
func TestEvictionIsLRUAndRecyclesPages(t *testing.T) {
	env := sim.NewEnv()
	dev := blockdev.New(env, blockdev.NVMe(), 8<<30)
	par := DefaultParams()
	par.MaxPages = 8
	c := New(env, dev, par)
	f := c.OpenFile(0, 1<<30)
	resident := func(i int) bool { return c.page(f, int64(i)) != nil }
	sim.Drive(t, env, "reader", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			f.Read(p, int64(i)*4096, 4096, Mmap)
		}
		for i := 0; i < 4; i++ { // 0..3 become the most recent
			f.Read(p, int64(i)*4096, 4096, Mmap)
		}
		before := map[*page]bool{}
		for _, pg := range indexed(c) {
			before[pg] = true
		}
		for i := 8; i < 12; i++ { // evicts 4..7, oldest first
			f.Read(p, int64(i)*4096, 4096, Mmap)
			if resident(i-4) || !resident(i) {
				t.Errorf("fault of page %d: page %d resident=%v, page %d resident=%v", i, i-4, resident(i-4), i, resident(i))
			}
		}
		for i := 0; i < 4; i++ {
			if !resident(i) {
				t.Errorf("recently used page %d was evicted", i)
			}
		}
		for _, pg := range indexed(c) {
			if !before[pg] {
				t.Errorf("page %d got a new record with evicted ones to spare", pg.idx)
			}
		}
	})
	if c.resident != 8 || c.spare != nil {
		t.Errorf("resident %d (want 8), spare list empty=%v (want true)", c.resident, c.spare == nil)
	}
}
