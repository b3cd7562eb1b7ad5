package pagecache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hybridkv/internal/blockdev"
	"hybridkv/internal/sim"
)

// recencyModel is the brute-force cache the two rings must agree with: one
// list of every resident page, least recent first, kept by the test from
// the accesses it makes (an access moves its page to the end) and from what
// it observes of the cache between them (a page that left is dropped; a
// page writeback or a reclaim cleaned is marked clean). It never reads a
// stamp or a ring, so a ring out of recency order shows as a disagreement.
type recencyModel struct {
	order []pageKey // least recent first
	dirty map[pageKey]bool
}

func (m *recencyModel) touch(k pageKey, dirtied bool) {
	if i := slices.Index(m.order, k); i >= 0 {
		m.order = slices.Delete(m.order, i, i+1)
	}
	m.order = append(m.order, k)
	m.dirty[k] = m.dirty[k] || dirtied
}

// catchUp brings the model up to date with what other procs did since the
// last look: evictions and cleanings, which move nothing in recency order.
// Anything else the cache did unasked is an error.
func (m *recencyModel) catchUp(c *Cache) error {
	kept := m.order[:0]
	for _, k := range m.order {
		pg := c.pages.get(k)
		switch {
		case pg == nil:
			delete(m.dirty, k)
			continue
		case pg.dirty && !m.dirty[k]:
			return fmt.Errorf("page %v is dirty, but no write dirtied it since it was last clean", k)
		case !pg.dirty:
			m.dirty[k] = false
		}
		kept = append(kept, k)
	}
	m.order = kept
	if len(m.order) != c.pages.len() {
		return fmt.Errorf("%d pages resident, %d of them admitted by an access", c.pages.len(), len(m.order))
	}
	return nil
}

// ringKeys lists up to n keys of a ring from its tail.
func ringKeys(r *page, n int) []pageKey {
	var ks []pageKey
	for pg := r.prev; pg != r && len(ks) < n; pg = pg.prev {
		ks = append(ks, pg.key)
	}
	return ks
}

// agree checks the rings' structure — each in strictly falling stamp order
// from its head, each page on the ring of its state, every resident page on
// one, the dirty count their dirty ring's length — and then that the next
// clean victim, the next direct-reclaim victim (the least recent page when
// none is clean) and the next writeback batch, each a ring tail, are what a
// scan of the model's one list in recency order finds.
func (m *recencyModel) agree(c *Cache) error {
	if err := m.catchUp(c); err != nil {
		return err
	}
	n, dirtyLen := 0, 0
	for _, r := range []*page{&c.clean, &c.dirtied} {
		for pg := r.next; pg != r; pg = pg.next {
			n++
			if pg.dirty {
				dirtyLen++
			}
			if c.ring(pg) != r || c.pages.get(pg.key) != pg {
				return fmt.Errorf("page %v (dirty %v) on the wrong ring or not resident", pg.key, pg.dirty)
			}
			if pg.next != r && pg.next.stamp >= pg.stamp {
				return fmt.Errorf("stamps out of order on a ring: %v at %d before %v at %d", pg.key, pg.stamp, pg.next.key, pg.next.stamp)
			}
		}
	}
	if n != c.pages.len() || dirtyLen != c.dirty {
		return fmt.Errorf("%d pages on the rings, %d resident; %d dirty counted", n, c.pages.len(), c.dirty)
	}
	var clean, dirty []pageKey
	for _, k := range m.order {
		if m.dirty[k] {
			dirty = append(dirty, k)
		} else {
			clean = append(clean, k)
		}
	}
	if got := ringKeys(&c.clean, 1); !slices.Equal(got, clean[:min(1, len(clean))]) {
		return fmt.Errorf("next clean victim %v, a scan in recency order finds %v", got, clean[:min(1, len(clean))])
	}
	if len(clean) == 0 {
		if got := ringKeys(&c.dirtied, 1); !slices.Equal(got, m.order[:min(1, len(m.order))]) {
			return fmt.Errorf("next direct-reclaim victim %v, a scan in recency order finds %v", got, m.order[:min(1, len(m.order))])
		}
	}
	if got, want := ringKeys(&c.dirtied, writebackBatch), dirty[:min(writebackBatch, len(dirty))]; !slices.Equal(got, want) {
		return fmt.Errorf("next writeback batch %v, a scan in recency order finds %v", got, want)
	}
	return nil
}

// TestRingsMatchOneRecencyList drives random sequences of cached reads and
// writes, touches, punches, writeback commands and bare evictions of single
// pages, each started a few microseconds after the last, so that writeback
// commands and direct reclaims sleep in their device writes while the next
// operations change the rings. The flusher's and the throttle's watermarks
// are out of reach, so a writeback happens only where the sequence asks for
// one. Before every operation, and after every access, the rings must agree
// with the brute-force model (agree). The small cache runs out of clean
// pages and reclaims directly; the large one holds more dirty pages than a
// writeback batch.
func TestRingsMatchOneRecencyList(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		maxPages, keys, ops  int
		writeShare, wbChance float64
		seeds                int64
		wantReclaims         bool
	}{
		{"small", 12, 24, 4000, 0.5, 0.05, 8, true},
		{"large", 272, 320, 1500, 0.9, 0.002, 2, false},
	} {
		for seed := int64(1); seed <= tc.seeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				env := sim.NewEnv()
				defer env.Close()
				par := DefaultParams()
				par.MaxPages = tc.maxPages
				par.DirtyHighPages, par.ThrottlePages = 1<<30, 1<<30
				c := New(env, blockdev.New(env, blockdev.NVMe(), 1<<30), par)
				ps := par.PageSize
				f := c.OpenFile(0, int64(tc.keys*ps))
				m := &recencyModel{dirty: make(map[pageKey]bool)}
				rng := rand.New(rand.NewSource(seed))
				var failed error
				op := 0
				check := func(when string) {
					if failed != nil {
						return
					}
					if err := m.agree(c); err != nil {
						failed = fmt.Errorf("at %v, op %d, %s: %w", env.Now(), op, when, err)
					}
				}
				flushed, maxDirty := int64(0), 0
				sim.Drive(t, env, "driver", func(p *sim.Proc) {
					for ; op < tc.ops && failed == nil; op++ {
						k := rng.Intn(tc.keys)
						key, off := pageKey{f.id, int64(k)}, int64(k*ps)
						check("before it")
						maxDirty = max(maxDirty, c.Dirty())
						switch r := rng.Float64(); {
						case r < tc.wbChance:
							env.Spawn("writeback", func(p *sim.Proc) {
								check("before a writeback")
								flushed += int64(min(c.Dirty(), writebackBatch))
								c.writeback(p)
							})
						case r < 2*tc.wbChance:
							env.Spawn("evict", func(p *sim.Proc) {
								check("before a bare eviction")
								c.evictFor(p, 1)
							})
						case r < 3*tc.wbChance:
							f.Punch(off)
						case r < 0.3:
							f.touchRange(off, ps)
							if c.pages.get(key) != nil {
								m.touch(key, false)
							}
						case r < 0.3+tc.writeShare*0.7:
							env.Spawn("write", func(p *sim.Proc) {
								check("before a write")
								f.Write(p, off, ps, k, Cached)
								m.touch(key, true)
								check("after a write")
							})
						default:
							env.Spawn("read", func(p *sim.Proc) {
								check("before a read")
								f.residentRange(p, off, ps, false)
								m.touch(key, false)
								check("after a read")
							})
						}
						p.Sleep(sim.Time(rng.Intn(8000)) * sim.Nanosecond)
					}
				})
				check("at the end")
				if failed != nil {
					t.Fatal(failed)
				}
				reclaims := c.WritebackPages - flushed
				t.Logf("%d direct reclaims, at most %d pages dirty", reclaims, maxDirty)
				if tc.wantReclaims && reclaims == 0 {
					t.Errorf("no direct reclaim in %d operations", tc.ops)
				}
				if !tc.wantReclaims && maxDirty <= writebackBatch {
					t.Errorf("at most %d pages dirty, never more than a writeback batch", maxDirty)
				}
			})
		}
	}
}

// TestDirectReclaimVictimReadmitted times one direct reclaim by hand in a
// two-page cache holding two dirty pages, 0 and 1. A reclaimer takes page 0,
// the least recent, and sleeps in its device write. Meanwhile writeback
// cleans both pages, a bare eviction drops page 0 (the least recent clean
// page) and a write faults page 0 in again: the record the eviction freed is
// the spare the fault reuses, so the cache maps page 0 to the reclaimer's
// victim record once more. When the reclaimer wakes it must see a new
// admission and leave the page alone, making its room by evicting page 1
// instead. A check on the record alone passed, and the reclaimer dropped
// the rewritten page 0 unwritten.
func TestDirectReclaimVictimReadmitted(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	par := DefaultParams()
	par.MaxPages = 2
	par.DirtyHighPages, par.ThrottlePages = 1<<30, 1<<30
	c := New(env, blockdev.New(env, blockdev.NVMe(), 1<<30), par)
	ps := par.PageSize
	f := c.OpenFile(0, int64(4*ps))
	k0, k1 := pageKey{f.id, 0}, pageKey{f.id, 1}
	reclaimed := false
	sim.Drive(t, env, "driver", func(p *sim.Proc) {
		f.Write(p, 0, ps, "first", Cached)
		f.Write(p, int64(ps), ps, "other", Cached)
		victim := c.pages.get(k0)
		env.Spawn("reclaimer", func(p *sim.Proc) {
			c.evictFor(p, 1)
			reclaimed = true
		})
		p.Sleep(sim.Nanosecond)
		env.Spawn("writeback", func(p *sim.Proc) { c.writeback(p) })
		p.Sleep(sim.Nanosecond)
		if c.Dirty() != 0 {
			t.Fatalf("%d pages dirty after writeback began, want 0", c.Dirty())
		}
		c.evictFor(p, 1)
		if c.pages.get(k0) != nil {
			t.Fatal("the bare eviction kept page 0")
		}
		f.Write(p, 0, ps, "second", Cached)
		if reclaimed || c.pages.get(k0) != victim {
			t.Fatalf("the rewrite did not land in the victim's record before the reclaimer woke (woke %v)", reclaimed)
		}
	})
	pg := c.pages.get(k0)
	if ok := pg != nil; !ok || !pg.dirty {
		t.Errorf("page 0 resident %v, dirty %v after its rewrite; want both (the reclaim dropped it unwritten)", ok, ok && pg.dirty)
	}
	if c.pages.get(k1) != nil {
		t.Error("page 1 still resident; the reclaimer needed its room")
	}
	if c.Dirty() != 1 {
		t.Errorf("%d pages counted dirty, want 1 (page 0's rewrite)", c.Dirty())
	}
}
