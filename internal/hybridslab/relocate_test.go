package hybridslab

import (
	"sort"
	"testing"

	"hybridkv/internal/sim"
)

// relocation names the two callers of the one relocation, for tests that
// must hold on both: the compactor over a sparse region, and the scrub pass's
// evacuation over a quarantined one.
type relocation struct {
	name string
	// prepare leaves region 0 of a rotFixture (items[0..30]) with exactly
	// two live, clean slots — items[0] and items[1] — selected for this
	// relocation.
	prepare func(t *testing.T, env *sim.Env, m *Manager, items []*Item)
	run     func(p *sim.Proc, m *Manager)
}

var relocations = []relocation{
	{
		name: "compaction",
		prepare: func(t *testing.T, env *sim.Env, m *Manager, items []*Item) {
			cutRegion(t, m, items, 2)
		},
		run: func(p *sim.Proc, m *Manager) { m.Compact(p, 0.5) },
	},
	{
		name: "evacuation",
		prepare: func(t *testing.T, env *sim.Env, m *Manager, items []*Item) {
			quarantineRegionOf(t, env, m, items[2])
			cutRegion(t, m, items, 2)
		},
		run: func(p *sim.Proc, m *Manager) { m.EvacuateQuarantined(p) },
	},
}

// plantMismatch swaps a record for another key into the item's slot: the
// header summary no longer matches, so the slot fails verification when it is
// next read off the SSD.
func plantMismatch(m *Manager, it *Item) {
	m.file.SetExtent(it.ssdOff, m.alloc.ChunkSize(it.class), &itemRecord{Key: "not-the-key", ValueSize: it.ValueSize})
}

// quarantineRegionOf makes a Load of it fail verification: the item is
// retired and its region quarantined, its siblings left clean.
func quarantineRegionOf(t *testing.T, env *sim.Env, m *Manager, it *Item) {
	t.Helper()
	plantMismatch(m, it)
	var err error
	env.Spawn("trip", func(p *sim.Proc) { _, err = m.Load(p, it) })
	env.Run()
	if err != ErrCorrupt || len(m.quarantine) != 1 {
		t.Fatalf("fixture: planted mismatch gave err=%v, %d quarantined", err, len(m.quarantine))
	}
}

// cutRegion releases all but the first keep items of the fixture's first
// flush region.
func cutRegion(t *testing.T, m *Manager, items []*Item, keep int) {
	t.Helper()
	pg := items[0].ssdPage
	for _, it := range items[keep:] {
		if it.ssdPage == pg && !it.dropped {
			m.Release(it)
		}
	}
	if pg.live != keep {
		t.Fatalf("fixture: region 0 holds %d live slots, want %d", pg.live, keep)
	}
}

// checkArena asserts that the SSD arena is partitioned: every byte below the
// bump pointer belongs to exactly one of a region holding a live slot, a
// quarantined region, or the free pool; ssdUsed is the sum of the first two;
// every member of the SSD recency list is a live item of this incarnation
// whose slot holds something; and a pooled region is clean — no extent,
// logical or durable, anywhere inside it.
//
// After a cold restart the partition may have holes: recovery learns the
// arena from what is durable, so a region that was pooled (clean) or still
// being written at the power cut, and a page whose header tore, stay below
// the bump pointer owned by nobody. Overlaps are never allowed.
func checkArena(t *testing.T, m *Manager, afterRecover bool) {
	t.Helper()
	type span struct {
		base, size int64
		what       string
	}
	var spans []span
	var used int64
	seen := map[*ssdPage]bool{}
	held := func(pg *ssdPage, what string) {
		if !seen[pg] {
			seen[pg] = true
			spans = append(spans, span{pg.base, pg.size, what})
			used += pg.size
		}
	}
	live := map[*ssdPage]int{}
	for e := m.ssdLRU.Back(); e != nil; e = e.Prev() {
		it := e.Value
		if it.gen != m.gen || it.dropped || !it.onSSD || it.inTransit || it.ssdPage == nil {
			t.Errorf("%q is on the SSD recency list but gen=%d/%d dropped=%v onSSD=%v inTransit=%v page=%v",
				it.Key, it.gen, m.gen, it.dropped, it.onSSD, it.inTransit, it.ssdPage)
			continue
		}
		if _, ok := m.file.Peek(it.ssdOff); !ok {
			t.Errorf("%q claims slot %d, which holds nothing", it.Key, it.ssdOff)
		}
		live[it.ssdPage]++
		held(it.ssdPage, "live")
	}
	for pg, n := range live {
		if pg.live != n {
			t.Errorf("region %d counts %d live slots, the recency list holds %d", pg.base, pg.live, n)
		}
	}
	for _, pg := range m.quarantine {
		if !pg.quarantined {
			t.Errorf("region %d is on the quarantine list without the flag", pg.base)
		}
		held(pg, "quarantined")
	}
	durable := m.file.DurableOffsets()
	for size, bases := range m.ssdFree {
		for _, base := range bases {
			spans = append(spans, span{base, size, "free"})
			for _, off := range []int64{base, commitOff(base, size)} {
				if _, ok := m.file.Peek(off); ok {
					t.Errorf("pooled region %d still holds a logical extent at %d", base, off)
				}
			}
			for _, off := range durable {
				if off >= base && off < base+size {
					t.Errorf("pooled region %d still holds a durable extent at %d", base, off)
				}
			}
		}
	}
	if used != m.ssdUsed {
		t.Errorf("ssdUsed = %d, regions holding live slots or quarantined sum to %d", m.ssdUsed, used)
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].base < spans[j].base })
	at := int64(0)
	for _, s := range spans {
		switch {
		case s.base < at:
			t.Errorf("arena: %s region [%d,%d) overlaps the one before it (ends %d)", s.what, s.base, s.base+s.size, at)
		case s.base > at && !afterRecover:
			t.Errorf("arena: [%d,%d) belongs to nothing (%d bytes lost)", at, s.base, s.base-at)
		}
		at = max(at, s.base+s.size)
	}
	if at > m.ssdNext || at < m.ssdNext && !afterRecover {
		t.Errorf("arena: regions end at %d, the bump pointer is %d", at, m.ssdNext)
	}
}

// relocationTime is how long the relocation of the prepared region takes on
// an otherwise idle manager.
func relocationTime(t *testing.T, r relocation) sim.Time {
	env, m, _, items := rotFixture(t, false)
	r.prepare(t, env, m, items)
	t0 := env.Now()
	env.Spawn("relocate", func(p *sim.Proc) { r.run(p, m) })
	return env.Run() - t0
}

// A GET that overlaps a relocation must not lose a live, clean item: the
// relink moves the slot under the read (the page cache looks the extent up
// after charging the device), and the read must follow it, not retire the
// item at its new slot. One Load started at each of 200 evenly spaced
// offsets into the relocation.
func TestLoadRacingRelocationKeepsItem(t *testing.T) {
	const points = 200
	for _, r := range relocations {
		t.Run(r.name, func(t *testing.T) {
			total := relocationTime(t, r)
			lost := 0
			for k := 1; k <= points; k++ {
				env, m, _, items := rotFixture(t, false)
				r.prepare(t, env, m, items)
				corrupt0 := m.CorruptLoads
				startAt := total * sim.Time(k) / sim.Time(points+1)
				var v any
				var err error
				env.Spawn("relocate", func(p *sim.Proc) { r.run(p, m) })
				env.Spawn("get", func(p *sim.Proc) {
					p.Sleep(startAt)
					v, err = m.Load(p, items[k%2])
				})
				env.Run()
				if err != nil || v != k%2 {
					if lost == 0 {
						t.Logf("first loss: GET started +%v into a %v relocation: (%v, %v), CorruptLoads=%d",
							startAt, total, v, err, m.CorruptLoads)
					}
					lost++
				}
				if m.CorruptLoads != corrupt0 {
					t.Errorf("+%v: CorruptLoads %d -> %d with no rot anywhere", startAt, corrupt0, m.CorruptLoads)
				}
				checkArena(t, m, false)
			}
			if lost != 0 {
				t.Errorf("%d of %d GET start offsets lost a live, clean item to a racing %s", lost, points, r.name)
			}
		})
	}
}

// A relocation whose survivors all die while its write is in flight must
// leave no region behind: the new region nobody survived into is recycled,
// not counted as used and stranded.
func TestRelocationNobodySurvivedIntoIsRecycled(t *testing.T) {
	for _, r := range relocations {
		t.Run(r.name, func(t *testing.T) {
			env, m, _, items := rotFixture(t, false)
			r.prepare(t, env, m, items)
			total := relocationTime(t, r)
			env.Spawn("relocate", func(p *sim.Proc) { r.run(p, m) })
			env.Spawn("release", func(p *sim.Proc) {
				// Past both slot reads, inside the region write.
				p.Sleep(total - 100*sim.Microsecond)
				m.Release(items[0])
				m.Release(items[1])
			})
			env.Run()
			checkArena(t, m, false)
			m.ReclaimQuarantined()
			checkArena(t, m, false)
		})
	}
}

// The compactor must not launder bit rot: a slot whose media rotted is
// re-read by the relocation, and what was read is verified exactly as a Load
// verifies it — never rewritten from the in-memory item under a fresh
// checksum.
func TestCompactVerifiesWhatItReads(t *testing.T) {
	env, m, dev, items := rotFixture(t, false)
	cutRegion(t, m, items, 2)
	pg := items[0].ssdPage
	dev.AddBitRot(17, env.Now(), env.Now()+sim.Millisecond, 1.0)
	var errs [2]error
	env.Spawn("compact", func(p *sim.Proc) {
		p.Sleep(2 * sim.Millisecond)
		m.Compact(p, 0.5)
		for i := range errs {
			_, errs[i] = m.Load(p, items[i])
		}
	})
	env.Run()
	if dev.RottenReads != 2 {
		t.Fatalf("RottenReads = %d: the compactor was meant to read both rotted slots", dev.RottenReads)
	}
	if m.CorruptLoads != 2 || m.QuarantinedPages != 1 || !pg.quarantined {
		t.Errorf("CorruptLoads=%d QuarantinedPages=%d quarantined=%v after compacting rotted media, want 2/1/true",
			m.CorruptLoads, m.QuarantinedPages, pg.quarantined)
	}
	for i, err := range errs {
		if err != ErrDropped || !items[i].Dropped() {
			t.Errorf("items[%d] loads (%v) after its rotted slot was compacted, want it retired", i, err)
		}
	}
	checkArena(t, m, false)
}
