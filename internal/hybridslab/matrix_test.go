package hybridslab

import (
	"fmt"
	"testing"

	"hybridkv/internal/blockdev"
	"hybridkv/internal/pagecache"
	"hybridkv/internal/sim"
	"hybridkv/internal/slab"
)

// The region-writer matrix: every way a slab page reaches the SSD (rows)
// against everything that can happen to the write (columns), under one list
// of assertions (writerCell.check, powerCycle). The rows all end in writeRun;
// what differs is who calls it, with how many regions, from which allocator
// path, and who owns the items meanwhile. A change to the writer, the
// placement or the relocation should fail a cell here before it moves a
// registry record.

// writerCell is one fixture: a 4 MB direct-I/O manager over an exposed SATA
// device, overcommitted by 300 32 KB items so that six regions of 30 sit on
// the SSD (items[0..179], region k holding items[30k..30k+29]) and the rest
// in RAM, at quiescence.
type writerCell struct {
	t     *testing.T
	env   *sim.Env
	dev   *blockdev.Device
	m     *Manager
	items []*Item // the fixture's items, in store order
	all   []*Item // every item of any incarnation the cell has seen
	// moving are the items the action's writes carry: an eviction's victims,
	// a relocation's clean survivors. bad are live items whose slot fails
	// verification, planted by the fixture.
	moving, bad []*Item
	slotOf      map[*Item]int64 // SSD slots before the action
	recovered   bool            // the manager has been through a cold restart
}

const matrixChunkItems = 30 // 32 KB items per 1 MB slab page

func newWriterCell(t *testing.T, cfg Config) *writerCell {
	t.Helper()
	c := &writerCell{t: t, env: sim.NewEnv()}
	c.dev = blockdev.New(c.env, blockdev.SATA(), 8<<30)
	cache := pagecache.New(c.env, c.dev, pagecache.DefaultParams())
	cfg.Slab, cfg.Policy = slab.Config{MemLimit: 4 << 20}, PolicyDirect
	c.m = New(c.env, cfg, cache.OpenFile(0, 4<<30))
	c.items = make([]*Item, 300)
	c.env.Spawn("fill", func(p *sim.Proc) {
		for i := range c.items {
			c.items[i] = item(i, 32*1024)
			c.m.Store(p, c.items[i])
		}
	})
	c.env.Run()
	c.all = append(c.all, c.items...)
	for k := 0; k < 6; k++ {
		first, last := c.items[k*matrixChunkItems], c.items[(k+1)*matrixChunkItems-1]
		if !first.onSSD || first.ssdPage != last.ssdPage || first.ssdPage.live != matrixChunkItems {
			t.Fatalf("fixture: region %d is not items[%d..%d]", k, k*matrixChunkItems, (k+1)*matrixChunkItems-1)
		}
	}
	return c
}

// coldest marks the n coldest RAM items — the victims of the next n/30
// evictions — as the ones the action moves.
func (c *writerCell) coldest(n int) {
	for e := c.m.lrus[c.items[0].class].Back(); e != nil && len(c.moving) < n; e = e.Prev() {
		c.moving = append(c.moving, e.Value)
	}
}

// sparseRegion leaves region 0 with three live slots: items[0] and items[1]
// clean, items[2] failing verification.
func (c *writerCell) sparseRegion() {
	plantMismatch(c.m, c.items[2])
	cutRegion(c.t, c.m, c.items, 3)
	c.moving, c.bad = c.items[:2], c.items[2:3]
}

func (c *writerCell) evict(p *sim.Proc, pages int) {
	for i := 0; i < pages; i++ {
		c.m.evictOnePage(p, c.items[0].class)
	}
}

// writerRow is one way a region reaches the SSD.
type writerRow struct {
	name string
	// writes is how many region writes the action makes when nothing goes
	// wrong, lastRegions how many regions the last of them carries.
	writes, lastRegions int
	cfg                 Config
	prepare             func(c *writerCell)
	act                 func(p *sim.Proc, c *writerCell)
}

var writerRows = []writerRow{
	{
		name: "synchronous eviction", writes: 1, lastRegions: 1,
		prepare: func(c *writerCell) { c.coldest(matrixChunkItems) },
		act:     func(p *sim.Proc, c *writerCell) { c.evict(p, 1) },
	},
	{
		name: "window of one", writes: 1, lastRegions: 1,
		prepare: func(c *writerCell) { c.coldest(matrixChunkItems) },
		act: func(p *sim.Proc, c *writerCell) {
			c.m.BeginEvictionBatch(p)
			c.evict(p, 1)
			c.m.EndEvictionBatch(p)
		},
	},
	{
		name: "window merged into one write", writes: 1, lastRegions: 2,
		prepare: func(c *writerCell) { c.coldest(2 * matrixChunkItems) },
		act: func(p *sim.Proc, c *writerCell) {
			c.m.BeginEvictionBatch(p)
			c.evict(p, 2)
			c.m.EndEvictionBatch(p)
		},
	},
	{
		// The arena has fresh space for one more region and two pooled ones:
		// a window of two finds no contiguous stretch and lands job by job.
		name: "window with no contiguous space left", writes: 2, lastRegions: 1,
		prepare: func(c *writerCell) {
			c.m.ssdLimit = c.m.ssdNext + c.items[0].ssdPage.size + 1000
			for _, it := range c.items[matrixChunkItems : 3*matrixChunkItems] {
				c.m.Release(it)
			}
			c.coldest(2 * matrixChunkItems)
		},
		act: func(p *sim.Proc, c *writerCell) {
			c.m.BeginEvictionBatch(p)
			c.evict(p, 2)
			c.m.EndEvictionBatch(p)
		},
	},
	{
		name: "write-behind flush", writes: 1, lastRegions: 1,
		cfg:     Config{AsyncFlush: true},
		prepare: func(c *writerCell) { c.coldest(matrixChunkItems) },
		act:     func(p *sim.Proc, c *writerCell) { c.evict(p, 1) },
	},
	{
		name: "compaction", writes: 1, lastRegions: 1,
		prepare: func(c *writerCell) { c.sparseRegion() },
		act:     func(p *sim.Proc, c *writerCell) { c.m.Compact(p, 0.5) },
	},
	{
		name: "evacuation", writes: 1, lastRegions: 1,
		prepare: func(c *writerCell) {
			quarantineRegionOf(c.t, c.env, c.m, c.items[3])
			c.sparseRegion()
		},
		act: func(p *sim.Proc, c *writerCell) { c.m.EvacuateQuarantined(p) },
	},
	{
		// Windows do not nest: the second Begin keeps the one window, and
		// the one End lands both jobs merged.
		name: "window begun twice", writes: 1, lastRegions: 2,
		prepare: func(c *writerCell) { c.coldest(2 * matrixChunkItems) },
		act: func(p *sim.Proc, c *writerCell) {
			c.m.BeginEvictionBatch(p)
			c.m.BeginEvictionBatch(p)
			c.evict(p, 2)
			c.m.EndEvictionBatch(p)
		},
	},
}

// writerCol is one thing that happens to the write. In a clean run the last
// thing the action does is its last commit write, which ends the run at end;
// the data write before it ends at dataEnd. interfere arranges the event by
// that clock; want gives the moves of FlushWrites, CommitWrites and
// FlushErrors and the flush-failure streak afterwards, for an action of w
// region writes.
type writerCol struct {
	name      string
	interfere func(c *writerCell, dataEnd, end sim.Time)
	want      func(w int64) (flushes, commits, errs int64, streak int)
	torn      bool
}

// The instants: 1 ms before the end of the last data write is inside it in
// every row (a direct write on this drive ends in a 3 ms barrier); halfway
// between its end and the end of the run is inside the last commit write.
func midData(dataEnd sim.Time) sim.Time        { return dataEnd - sim.Millisecond }
func midCommit(dataEnd, end sim.Time) sim.Time { return (dataEnd + end) / 2 }

var writerCols = []writerCol{
	{
		name:      "clean",
		interfere: func(*writerCell, sim.Time, sim.Time) {},
		want:      func(w int64) (int64, int64, int64, int) { return w, w, 0, 0 },
	},
	{
		// Every device write is refused: no data write lands, so no commit
		// write is attempted.
		name:      "data write refused",
		interfere: func(c *writerCell, dataEnd, end sim.Time) { c.dev.SetFaults(5, 0, 1.0) },
		want:      func(w int64) (int64, int64, int64, int) { return 0, 0, w, int(w) },
	},
	{
		name: "commit write refused",
		interfere: func(c *writerCell, dataEnd, end sim.Time) {
			c.env.AtFunc(midCommit(dataEnd, end), func() { c.dev.SetFaults(5, 0, 1.0) })
		},
		want: func(w int64) (int64, int64, int64, int) { return w, w - 1, 1, 1 },
	},
	{
		name: "cold restart during the data write",
		interfere: func(c *writerCell, dataEnd, end sim.Time) {
			c.env.SpawnAt(midData(dataEnd), "power-cut", func(p *sim.Proc) { c.powerCycle(p, true, false) })
		},
		want: func(w int64) (int64, int64, int64, int) { return w - 1, w - 1, 0, 0 },
	},
	{
		name: "cold restart during the commit write",
		interfere: func(c *writerCell, dataEnd, end sim.Time) {
			c.env.SpawnAt(midCommit(dataEnd, end), "power-cut", func(p *sim.Proc) { c.powerCycle(p, true, false) })
		},
		want: func(w int64) (int64, int64, int64, int) { return w, w - 1, 0, 0 },
	},
	{
		name: "every item released mid-write",
		interfere: func(c *writerCell, dataEnd, end sim.Time) {
			c.env.AtFunc(midData(dataEnd), func() {
				for _, it := range c.moving {
					c.m.Release(it)
				}
			})
		},
		want: func(w int64) (int64, int64, int64, int) { return w, w, 0, 0 },
	},
	{
		// Every data write tears (the commit records, a sector each or
		// written after the injector is disarmed, do not): the manager
		// cannot tell, and only the power cycle that follows shows it.
		name: "torn data write + power cycle + Recover", torn: true,
		interfere: func(c *writerCell, dataEnd, end sim.Time) {
			c.dev.SetTornWrites(11, 1.0)
			c.env.AtFunc(midCommit(dataEnd, end), func() { c.dev.SetTornWrites(11, 0) })
		},
		want: func(w int64) (int64, int64, int64, int) { return w, w, 0, 0 },
	},
}

// powerCycle is a power cut and the recovery after it, with the assertions
// that belong to the instant. Before: the durable view is crash-consistent —
// a durable commit record implies its region's header is durable under the
// same epoch, which is what writing data before commit buys (midWrite only:
// a torn write breaks it by design, and recovery is what copes). After:
// Recover returns exactly the items that were live on the SSD — each once,
// with its value — or, when writes tore, no item that was not, and every one
// the torn writes did not touch.
func (c *writerCell) powerCycle(p *sim.Proc, midWrite, torn bool) {
	t, m := c.t, c.m
	if midWrite {
		for _, off := range m.file.DurableOffsets() {
			e, _ := m.file.PeekDurable(off)
			cr, ok := e.Payload.(*commitRecord)
			if !ok {
				continue
			}
			he, _ := m.file.PeekDurable(cr.Base)
			if hdr, ok := he.Payload.(*pageHeader); !ok || hdr.Epoch != cr.Epoch {
				t.Errorf("power cut at %v: the commit record of region %d (epoch %d) is durable and its header is not",
					p.Now(), cr.Base, cr.Epoch)
			}
		}
	}
	before := map[string]*Item{}
	for e := m.ssdLRU.Back(); e != nil; e = e.Prev() {
		before[e.Value.Key] = e.Value
	}
	items, rep := m.Recover(p)
	c.recovered = true
	c.all = append(c.all, items...)
	if rep.PagesScanned != rep.PagesRecovered+rep.PagesDiscarded || int64(len(items)) != rep.ItemsRecovered {
		t.Errorf("recovery report does not add up: %+v for %d items", rep, len(items))
	}
	got := map[string]bool{}
	for _, it := range items {
		was, ok := before[it.Key]
		switch {
		case got[it.Key]:
			t.Errorf("Recover returned %q twice", it.Key)
		case !ok:
			t.Errorf("Recover returned %q, which was not live on the SSD at the power cut", it.Key)
		case it.Value != was.Value || it.ValueSize != was.ValueSize:
			t.Errorf("Recover returned %q = %v, it held %v", it.Key, it.Value, was.Value)
		}
		got[it.Key] = true
	}
	for key, was := range before {
		if !got[key] && (!torn || c.slotOf[was] == was.ssdOff) {
			t.Errorf("Recover lost %q, live at slot %d of a committed region", key, was.ssdOff)
		}
	}
}

// check is the one assertion list, applied at quiescence.
func (c *writerCell) check() {
	t, m := c.t, c.m
	t.Helper()
	checkArena(t, m, c.recovered)
	// No item is both dropped and on a recency list, or half-placed.
	inRAM, onSSD := map[*Item]bool{}, map[*Item]bool{}
	for i := range m.lrus {
		for e := m.lrus[i].Back(); e != nil; e = e.Prev() {
			inRAM[e.Value] = true
		}
		// Slab chunks balance: with nothing in flight, a class's used chunks
		// are exactly its RAM residents.
		if used := m.alloc.Class(i).UsedChunks; used != m.lrus[i].Len() {
			t.Errorf("class %d: %d chunks in use for %d RAM items", i, used, m.lrus[i].Len())
		}
	}
	for e := m.ssdLRU.Back(); e != nil; e = e.Prev() {
		onSSD[e.Value] = true
	}
	if m.flushing != 0 || len(m.windows) != 0 {
		t.Errorf("at quiescence %d evictions are in flight and %d windows open", m.flushing, len(m.windows))
	}
	var live []*Item
	for _, it := range c.all {
		gone := it.dropped || it.gen != m.gen
		switch {
		case it.inTransit:
			t.Errorf("%q is still in transit", it.Key)
		case gone && (inRAM[it] || onSSD[it]):
			t.Errorf("%q is gone (dropped=%v, gen %d of %d) and on a recency list", it.Key, it.dropped, it.gen, m.gen)
		case gone:
		case it.onSSD != onSSD[it] || it.onSSD == inRAM[it] || it.onSSD != (it.ssdPage != nil):
			t.Errorf("%q is half-placed: onSSD=%v page=%v, on the RAM list %v, on the SSD list %v",
				it.Key, it.onSSD, it.ssdPage != nil, inRAM[it], onSSD[it])
		default:
			live = append(live, it)
		}
	}
	if len(live) != len(inRAM)+len(onSSD) {
		t.Errorf("%d live items known to the cell, the recency lists hold %d + %d", len(live), len(inRAM), len(onSSD))
	}
	// A slot that fails verification is never relocated: the item is retired,
	// or still where it was.
	isBad := map[*Item]bool{}
	for _, it := range c.bad {
		isBad[it] = true
		if !it.dropped && it.gen == m.gen && it.ssdOff != c.slotOf[it] {
			t.Errorf("%q failed verification and was moved from slot %d to %d", it.Key, c.slotOf[it], it.ssdOff)
		}
	}
	// Every live item still loads its value.
	c.env.Spawn("load", func(p *sim.Proc) {
		for _, it := range live {
			if isBad[it] {
				continue
			}
			if v, err := m.Load(p, it); err != nil || v == nil || fmt.Sprintf("key-%06d", v) != it.Key {
				t.Errorf("%q loads (%v, %v)", it.Key, v, err)
			}
		}
	})
	c.env.Run()
}

func TestRegionWriterMatrix(t *testing.T) {
	commitTime := func(regions int) sim.Time {
		return pagecache.SyscallCost + blockdev.SATA().WriteTime(regions*PageCommitSize)
	}
	for _, row := range writerRows {
		t.Run(row.name, func(t *testing.T) {
			// run builds the fixture, starts the action under the column's
			// interference and runs to quiescence.
			run := func(t *testing.T, col writerCol, dataEnd, end sim.Time) (c *writerCell, flushes, commits, errs int64) {
				c = newWriterCell(t, row.cfg)
				row.prepare(c)
				c.slotOf = map[*Item]int64{}
				for e := c.m.ssdLRU.Back(); e != nil; e = e.Prev() {
					c.slotOf[e.Value] = e.Value.ssdOff
				}
				flushes, commits, errs = c.m.FlushWrites, c.m.CommitWrites, c.m.FlushErrors
				col.interfere(c, dataEnd, end)
				c.env.Spawn("act", func(p *sim.Proc) { row.act(p, c) })
				c.env.Run()
				return c, c.m.FlushWrites - flushes, c.m.CommitWrites - commits, c.m.FlushErrors - errs
			}
			// The clean run is the clock the other columns set their
			// interference by: it ends with its last commit write.
			clean, _, _, _ := run(t, writerCols[0], 0, 0)
			end := clean.env.Now()
			dataEnd := end - commitTime(row.lastRegions)
			for _, col := range writerCols {
				t.Run(col.name, func(t *testing.T) {
					defer func() {
						if r := recover(); r != nil {
							t.Errorf("the cell panicked: %v", r)
						}
					}()
					c, flushes, commits, errs := run(t, col, dataEnd, end)
					c.dev.SetFaults(5, 0, 0)
					wf, wc, we, streak := col.want(int64(row.writes))
					if flushes != wf || commits != wc || errs != we || c.m.flushFailStreak != streak {
						t.Errorf("FlushWrites %+d CommitWrites %+d FlushErrors %+d, streak %d; want %+d %+d %+d, %d",
							flushes, commits, errs, c.m.flushFailStreak, wf, wc, we, streak)
					}
					c.check()
					c.env.Spawn("power-cut", func(p *sim.Proc) { c.powerCycle(p, false, col.torn) })
					c.env.Run()
					c.check()
				})
			}
		})
	}
}

// When a window's jobs land one by one, every write suspends, and a cold
// restart under an early job must stop the later ones too: each re-checks
// its incarnation before it touches the rebuilt arena. The matrix's restart
// columns cut the last write; this cuts the first of two.
func TestPlaceRechecksEachJobAcrossColdRestart(t *testing.T) {
	row := writerRows[3]
	if row.writes != 2 {
		t.Fatalf("row %q is not the job-by-job window", row.name)
	}
	start := func() *writerCell {
		c := newWriterCell(t, row.cfg)
		row.prepare(c)
		c.env.Spawn("act", func(p *sim.Proc) { row.act(p, c) })
		return c
	}
	clean := start()
	flushes := clean.m.FlushWrites
	for i := 0; clean.m.FlushWrites == flushes && i < 1000; i++ {
		clean.env.RunUntil(clean.env.Now() + 100*sim.Microsecond)
	}
	firstDataEnd := clean.env.Now()

	c := start()
	c.env.SpawnAt(midData(firstDataEnd), "power-cut", func(p *sim.Proc) { c.powerCycle(p, true, false) })
	c.env.Run()
	if got := c.m.FlushWrites - flushes; got != 0 {
		t.Errorf("%d region writes landed across the cold restart, want 0", got)
	}
	for _, it := range c.moving {
		if !it.dropped {
			t.Errorf("%q of the abandoned window is not dropped", it.Key)
		}
	}
	c.check()
}
