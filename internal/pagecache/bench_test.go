package pagecache

import (
	"testing"

	"hybridkv/internal/blockdev"
	"hybridkv/internal/sim"
)

// regionModel returns two steps over a file of 64 slab-page-like regions
// (a 512-byte header and three 32 KB slots each): write rewrites the next
// region with one WriteExtents under the scheme, read fetches one slot of the
// next region. The file is eight times the cache, so in steady state the
// reads miss and the writes fault and evict.
func regionModel(scheme Scheme) (write, read func()) {
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
	env.Spawn("fill", func(p *sim.Proc) {
		for i := 0; i < regions; i++ {
			doWrite(p)
		}
	})
	env.Run()
	return func() { env.Go("write", doWrite); env.Run() }, func() { env.Go("read", doRead); env.Run() }
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
	write, read := regionModel(scheme)
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

// Steady-state paging allocates nothing: resident pages are recycled through
// the spare list, the extent maps are at size, and neither the write charge
// nor the read path builds anything per call.
func TestFileOpAllocationCeilings(t *testing.T) {
	for _, scheme := range []Scheme{Direct, Cached, Mmap} {
		write, read := regionModel(scheme)
		for _, tc := range []struct {
			name string
			step func()
		}{{"WriteExtents", write}, {"Read", read}} {
			tc.step()
			if got := testing.AllocsPerRun(200, tc.step); got > 0 {
				t.Errorf("one %s %s: %v allocations, ceiling 0", scheme, tc.name, got)
			}
		}
	}
}
