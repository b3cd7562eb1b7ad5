package pagecache

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hybridkv/internal/blockdev"
	"hybridkv/internal/sim"
)

// pageID names page idx of the file at index file of a test's file list.
type pageID struct {
	file int
	idx  int64
}

// indexed lists the pages of c's index, bucket by bucket.
func indexed(c *Cache) []*page {
	var pgs []*page
	for _, head := range c.buckets {
		for pg := head; pg != nil; pg = pg.chain {
			pgs = append(pgs, pg)
		}
	}
	return pgs
}

// auditIndex checks c's index against model, the resident pages of files:
// every chained page sits in its own bucket, is on a ring and is in the
// model; the index holds as many pages as the model and c.resident count;
// and page finds each of idxs of each file exactly when the model has it.
func auditIndex(c *Cache, files []*File, idxs []int64, model map[pageID]bool) error {
	n := 0
	for b, head := range c.buckets {
		for pg := head; pg != nil; pg = pg.chain {
			n++
			id := pageID{slices.Index(files, pg.file), pg.idx}
			if got := pg.file.bucket(pg.idx); got != uint64(b) {
				return fmt.Errorf("page %+v chained in bucket %d, its bucket is %d", id, b, got)
			}
			if pg.prev == nil || !model[id] {
				return fmt.Errorf("page %+v is indexed, on a ring %v, resident in the model %v", id, pg.prev != nil, model[id])
			}
		}
	}
	if n != len(model) || c.resident != len(model) {
		return fmt.Errorf("%d pages indexed, %d counted resident, %d in the model", n, c.resident, len(model))
	}
	for fi, f := range files {
		for _, idx := range idxs {
			pg, id := c.page(f, idx), pageID{fi, idx}
			if (pg != nil) != model[id] || pg != nil && (pg.file != f || pg.idx != idx) {
				return fmt.Errorf("page %+v: found %v, resident in the model %v", id, pg != nil, model[id])
			}
		}
	}
	return nil
}

// The index model: three files of indexPages pages in a cache of 8 buckets.
// The second file's pages share the first's buckets page for page, the
// third's are three buckets on, and the first's run of buckets wraps past
// 2^64, so every bucket chains pages of all three files.
const indexPages = 12

// indexRig returns the model's cache and files.
func indexRig(env *sim.Env) (*Cache, []*File) {
	par := DefaultParams()
	par.MaxPages = 8
	c := New(env, blockdev.New(env, blockdev.NVMe(), 1<<30), par)
	files := make([]*File, 3)
	for i := range files {
		files[i] = c.OpenFile(int64(i)*indexPages*4096, indexPages*4096)
	}
	files[0].seed = ^uint64(0) - 4
	files[1].seed = files[0].seed + 8
	files[2].seed = files[0].seed + 3
	return c, files
}

// indexStep decodes b into one step on the index and the model: b%3 picks
// the file, b/3%indexPages the page, and b/36 the step — admit the page
// unless it is resident (0–2), evict it if it is (3, 4), punch an extent
// over it and the next page (5, 6), or Reset the cache (7, the last four
// values).
func indexStep(c *Cache, files []*File, model map[pageID]bool, b byte) {
	id := pageID{int(b) % 3, int64(b/3) % indexPages}
	f, ps := files[id.file], int64(c.par.PageSize)
	switch op := b / 36; {
	case op < 3:
		if c.page(f, id.idx) == nil {
			c.admit(f, id.idx)
			model[id] = true
		}
	case op < 5:
		if pg := c.page(f, id.idx); pg != nil {
			c.evict(pg)
			delete(model, id)
		}
	case op < 7:
		end := min(id.idx+2, indexPages)
		f.SetExtent(id.idx*ps, int((end-id.idx)*ps), nil)
		f.Punch(id.idx * ps)
		for i := id.idx; i < end; i++ {
			delete(model, pageID{id.file, i})
		}
	default:
		c.Reset()
		clear(model)
	}
}

// runIndexSteps runs data's steps on a fresh rig, auditing after each.
func runIndexSteps(t *testing.T, data []byte) (*Cache, []*File) {
	t.Helper()
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	c, files := indexRig(env)
	model := map[pageID]bool{}
	idxs := make([]int64, indexPages)
	for i := range idxs {
		idxs[i] = int64(i)
	}
	for step, b := range data {
		indexStep(c, files, model, b)
		if err := auditIndex(c, files, idxs, model); err != nil {
			t.Fatalf("step %d (%#x): %v", step, b, err)
		}
	}
	return c, files
}

// TestPageIndexMatchesAMap runs random admissions, evictions, punches and
// resets over pages whose buckets collide (indexRig) and holds the index to
// a map after every step; then it evicts a page twice, and the second
// eviction, of a page no longer resident, panics.
func TestPageIndexMatchesAMap(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 3000)
		rng.Read(data)
		c, files := runIndexSteps(t, data)
		if t.Failed() {
			return
		}
		pg := c.page(files[2], 5)
		if pg == nil {
			pg = c.admit(files[2], 5)
		}
		c.evict(pg)
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Fatalf("seed %d: evicting a page that is not resident did not panic", seed)
				}
			}()
			c.evict(pg)
		}()
	}
}

// FuzzPageIndex runs indexStep's steps, decoded from the input, against the
// map; the seeds run under plain `go test`, and `make fuzz` explores from
// them.
func FuzzPageIndex(f *testing.F) {
	f.Add([]byte{0x00, 0x03, 0x06, 0x18, 0x1b, 0x01, 0x04, 0x6c, 0x6f, 0xb4, 0xfc, 0x02})
	f.Add([]byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x6c, 0x6d, 0x6e, 0x00, 0x01, 0x02})
	f.Add([]byte{0x0c, 0x0d, 0x0e, 0x18, 0x19, 0x1a, 0xb4, 0xb5, 0xb6, 0x6c, 0x78})
	f.Add([]byte{0x00, 0x01, 0x6d, 0x6c}) // a chain's head evicted over the page below it
	f.Fuzz(func(t *testing.T, data []byte) { runIndexSteps(t, data) })
}

// Pages at the edges of the index's domain: OpenFile takes a file of any
// size, and the first and last pages of two files of math.MaxInt64 bytes,
// one of whose runs of buckets wraps past 2^64, are each found in their own
// bucket apart from the other file's page there.
func TestPageKeysAtTheDomainEdges(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	par := DefaultParams()
	par.MaxPages = 8
	c := New(env, blockdev.New(env, blockdev.NVMe(), 1<<30), par)
	ps := int64(par.PageSize)
	last := (math.MaxInt64 - 1) / ps
	files := []*File{c.OpenFile(0, math.MaxInt64), c.OpenFile(0, math.MaxInt64)}
	files[0].seed, files[1].seed = ^uint64(0), 1
	idxs := []int64{0, 1, last - 1, last}
	model := map[pageID]bool{}
	sim.Drive(t, env, "reader", func(p *sim.Proc) {
		for fi, f := range files {
			for _, idx := range idxs {
				f.Read(p, idx*ps+ps-1, 1, Mmap)
				model[pageID{fi, idx}] = true
			}
		}
	})
	if err := auditIndex(c, files, idxs, model); err != nil {
		t.Fatal(err)
	}
	c.Reset()
	if err := auditIndex(c, files, idxs, map[pageID]bool{}); err != nil {
		t.Fatalf("after Reset: %v", err)
	}
}

// TestCacheThatNeverPagesHasNoIndex: direct I/O, raw reads and punches
// admit no page, so the cache makes no index; the first page a cached read
// admits makes it, the power of two of at least MaxPages buckets.
func TestCacheThatNeverPagesHasNoIndex(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	par := DefaultParams()
	par.MaxPages = 100
	c := New(env, blockdev.New(env, blockdev.NVMe(), 1<<30), par)
	f := c.OpenFile(0, 1<<20)
	sim.Drive(t, env, "direct", func(p *sim.Proc) {
		f.Write(p, 0, 8192, "x", Direct)
		f.Read(p, 0, 8192, Direct)
		f.ReadRaw(p, 0, 4096)
		f.Punch(0)
	})
	c.Reset()
	if c.buckets != nil {
		t.Fatalf("a cache that admitted no page made an index of %d buckets", len(c.buckets))
	}
	sim.Drive(t, env, "cached", func(p *sim.Proc) { f.Read(p, 0, 4096, Cached) })
	if n := len(c.buckets); n != 128 || c.mask != 127 || c.resident != 1 {
		t.Errorf("after one cached read: %d buckets, mask %d, %d resident; want 128, 127, 1", n, c.mask, c.resident)
	}
}
