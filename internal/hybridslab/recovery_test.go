package hybridslab

import (
	"testing"

	"hybridkv/internal/blockdev"
	"hybridkv/internal/pagecache"
	"hybridkv/internal/pool"
	"hybridkv/internal/sim"
	"hybridkv/internal/slab"
)

// newRecoveryRig builds a small overcommitted manager whose device can tear
// writes: 2 MB of RAM under a driver that stores ~5 MB, so most items flush.
func newRecoveryRig(seed int64, tornProb float64) (*sim.Env, *Manager, *blockdev.Device) {
	env := sim.NewEnv()
	dev := blockdev.New(env, blockdev.SATA(), 8<<30)
	if tornProb > 0 {
		dev.SetTornWrites(seed, tornProb)
	}
	cache := pagecache.New(env, dev, pagecache.DefaultParams())
	m := New(env, Config{
		Slab:   slab.Config{MemLimit: 2 << 20},
		Policy: PolicyDirect,
	}, cache.OpenFile(0, 4<<30))
	return env, m, dev
}

// recoveryDriver stores n 32 KB items, wrapping every run of 20 in an
// eviction-coalescing window so crash points land inside merged flushes
// (including between a merged data write and its commit record) as well as
// plain per-job flushes. stop makes the driver quit at the next iteration
// after a simulated power cut. Store errors are ignored: after a crash the
// resumed call may observe ErrRecovering.
func recoveryDriver(m *Manager, n int, stop *bool) func(p *sim.Proc) {
	return func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if *stop {
				return
			}
			if i%20 == 0 {
				m.BeginEvictionBatch(p)
			}
			m.Store(p, item(i, 32*1024))
			if i%20 == 19 || i == n-1 {
				m.EndEvictionBatch(p)
			}
		}
	}
}

// TestRecoverSweepCrashAnyPoint is the acceptance sweep: a power cut
// injected at evenly spaced points of an eviction-heavy run — landing inside
// buffering, merged data writes, commit writes, and quiet stretches alike,
// with torn writes armed — followed by Recover must yield only
// fully-committed, byte-correct values, with every discarded page accounted.
func TestRecoverSweepCrashAnyPoint(t *testing.T) {
	const n, points = 300, 25
	expected := make(map[string]int, n)
	for i := 0; i < n; i++ {
		expected[item(i, 32*1024).Key] = i
	}

	// Clean twin fixes the run's duration; tearing charges no virtual time,
	// so every incarnation below follows the identical timeline up to its
	// crash point regardless of its tear-draw seed.
	env, m, _ := newRecoveryRig(1, 0.5)
	stop := false
	total := sim.Drive(t, env, "drv", recoveryDriver(m, n, &stop))
	if m.FlushPages == 0 {
		t.Fatalf("clean run flushed nothing; sweep would be vacuous")
	}

	var sumRecovered, sumDiscarded, sumTorn, sumUncommitted int64
	for k := 1; k <= points; k++ {
		crashAt := total * sim.Time(k) / sim.Time(points+1)
		env, m, _ := newRecoveryRig(int64(1000+k), 0.5)
		stop := false
		env.Spawn("drv", recoveryDriver(m, n, &stop))
		env.RunUntil(crashAt) // no driver: the power cut strikes the driver mid-run

		stop = true
		sim.Drive(t, env, "recover", func(p *sim.Proc) {
			items, rep := m.Recover(p)
			if rep.PagesScanned != rep.PagesRecovered+rep.PagesDiscarded {
				t.Errorf("crash@%v: scanned %d != recovered %d + discarded %d",
					crashAt, rep.PagesScanned, rep.PagesRecovered, rep.PagesDiscarded)
			}
			if rep.PagesTorn+rep.PagesUncommitted > rep.PagesDiscarded {
				t.Errorf("crash@%v: torn %d + uncommitted %d exceed discarded %d",
					crashAt, rep.PagesTorn, rep.PagesUncommitted, rep.PagesDiscarded)
			}
			if int64(len(items)) != rep.ItemsRecovered {
				t.Errorf("crash@%v: %d items returned, report says %d",
					crashAt, len(items), rep.ItemsRecovered)
			}
			sumRecovered += rep.PagesRecovered
			sumDiscarded += rep.PagesDiscarded
			sumTorn += rep.PagesTorn
			sumUncommitted += rep.PagesUncommitted
			seen := make(map[string]bool)
			for _, it := range items {
				if seen[it.Key] {
					t.Errorf("crash@%v: key %q recovered twice", crashAt, it.Key)
				}
				seen[it.Key] = true
				want, known := expected[it.Key]
				if !known {
					t.Errorf("crash@%v: recovered unknown key %q", crashAt, it.Key)
					continue
				}
				v, err := m.Load(p, it)
				if err != nil || v != want {
					t.Errorf("crash@%v: recovered %q = (%v,%v), want %d",
						crashAt, it.Key, v, err, want)
				}
			}
			// The rebuilt store must accept and serve fresh writes.
			fresh := item(100000+k, 32*1024)
			if err := m.Store(p, fresh); err != nil {
				t.Errorf("crash@%v: post-recovery store failed: %v", crashAt, err)
			} else if v, err := m.Load(p, fresh); err != nil || v != 100000+k {
				t.Errorf("crash@%v: post-recovery load = (%v,%v)", crashAt, v, err)
			}
		})
	}
	// The sweep must have exercised both outcomes: pages surviving intact and
	// pages rejected (20% of write commands tear).
	if sumRecovered == 0 {
		t.Errorf("no page recovered at any of %d crash points", points)
	}
	if sumDiscarded == 0 || sumTorn == 0 {
		t.Errorf("torn-write injection never forced a discard (discarded=%d torn=%d)",
			sumDiscarded, sumTorn)
	}
	if sumUncommitted == 0 {
		t.Errorf("no crash point landed in the data-write/commit-record window")
	}
	t.Logf("sweep totals: recovered=%d discarded=%d torn=%d uncommitted=%d",
		sumRecovered, sumDiscarded, sumTorn, sumUncommitted)
}

// TestRecoverDiscardsUncommittedPage pins the commit-atomicity window: the
// durable image of a crash after a page's data write but before its commit
// record (data extents landed, commit absent) must be discarded as
// uncommitted, its keys gone, and its region returned to the free pool.
func TestRecoverDiscardsUncommittedPage(t *testing.T) {
	const n = 150
	env, m, _ := newRecoveryRig(1, 0)
	stop := false
	sim.Drive(t, env, "drv", recoveryDriver(m, n, &stop))

	// Walk the SSD recency list directly (same package) to pick a victim page.
	var onSSD []*Item
	for e := m.ssdLRU.Back(); e != nil; e = e.Prev() {
		onSSD = append(onSSD, e.Value)
	}
	if len(onSSD) == 0 {
		t.Fatalf("nothing on SSD after overcommitted run")
	}
	victim := onSSD[0]
	pg := victim.ssdPage
	var pageKeys []string
	for _, it := range onSSD {
		if it.ssdPage == pg {
			pageKeys = append(pageKeys, it.Key)
		}
	}

	// Simulate the crash-in-the-window durable image: the commit record never
	// reached the media. Discard drops it from both the logical and durable
	// views, exactly what a power cut before the commit write leaves behind.
	m.file.Discard(commitOff(pg.base, pg.size))

	sim.Drive(t, env, "recover", func(p *sim.Proc) {
		items, rep := m.Recover(p)
		if rep.PagesUncommitted != 1 {
			t.Errorf("PagesUncommitted = %d, want 1", rep.PagesUncommitted)
		}
		if rep.PagesDiscarded < 1 {
			t.Errorf("PagesDiscarded = %d, want >= 1", rep.PagesDiscarded)
		}
		byKey := make(map[string]*Item)
		for _, it := range items {
			byKey[it.Key] = it
		}
		for _, k := range pageKeys {
			if _, ok := byKey[k]; ok {
				t.Errorf("key %q from the uncommitted page was recovered", k)
			}
		}
		found := false
		for _, base := range m.ssdFree[pg.size] {
			if base == pg.base {
				found = true
			}
		}
		if !found {
			t.Errorf("uncommitted region %d not returned to the free pool", pg.base)
		}
	})
}

// TestFailedMergedFlushKeepsVictimsConsistent is the placeMerged error-path
// regression: an injected device write error under a coalesced eviction
// flush must not leave any victim half-placed — nothing is marked SSD
// resident, FlushWrites counts only successful data writes and matches the
// device's error ledger, and eviction makes progress once the device heals.
func TestFailedMergedFlushKeepsVictimsConsistent(t *testing.T) {
	env := sim.NewEnv()
	dev := blockdev.New(env, blockdev.SATA(), 8<<30)
	cache := pagecache.New(env, dev, pagecache.DefaultParams())
	m := New(env, Config{
		Slab:   slab.Config{MemLimit: 4 << 20},
		Policy: PolicyDirect,
	}, cache.OpenFile(0, 4<<30))

	const prefill = 200
	items := make([]*Item, 0, prefill+80)
	sim.Drive(t, env, "op", func(p *sim.Proc) {
		for i := 0; i < prefill; i++ {
			it := item(i, 32*1024)
			items = append(items, it)
			m.Store(p, it)
		}
		flushes0, commits0, errs0 := m.FlushWrites, m.CommitWrites, m.FlushErrors
		if dev.WriteErrors != 0 {
			t.Errorf("write errors before faults armed: %d", dev.WriteErrors)
		}
		var ramBefore []*Item
		for _, it := range items {
			if !it.OnSSD() && !it.Dropped() {
				ramBefore = append(ramBefore, it)
			}
		}

		// One coalescing window big enough to stage at least two page
		// evictions (a multi-job merged run), with every device write failing.
		dev.SetFaults(5, 0, 1.0)
		m.BeginEvictionBatch(p)
		for i := prefill; i < prefill+40; i++ {
			it := item(i, 32*1024)
			items = append(items, it)
			m.Store(p, it)
		}
		m.EndEvictionBatch(p)
		dev.SetFaults(5, 0, 0)

		if m.FlushErrors == errs0 {
			t.Fatalf("merged flush did not fail under injected write errors")
		}
		if m.FlushWrites != flushes0 || m.CommitWrites != commits0 {
			t.Errorf("failed run counted as success: flushes %d->%d commits %d->%d",
				flushes0, m.FlushWrites, commits0, m.CommitWrites)
		}
		if got := dev.WriteErrors; got != m.FlushErrors-errs0 {
			t.Errorf("FlushErrors delta %d != device WriteErrors %d",
				m.FlushErrors-errs0, got)
		}
		// No victim of the failed run may claim SSD residency.
		for _, it := range ramBefore {
			if it.OnSSD() {
				t.Errorf("%q half-placed on SSD after failed merged flush", it.Key)
			}
		}

		// Every surviving item — RAM-resident victims included — still loads
		// its original value; nothing reads as corrupt.
		bad := 0
		for i, it := range items {
			if it.Dropped() {
				continue
			}
			if v, err := m.Load(p, it); err != nil || v != i {
				bad++
			}
		}
		if bad != 0 || m.CorruptLoads != 0 {
			t.Errorf("%d unreadable items, %d corrupt loads after failed flush",
				bad, m.CorruptLoads)
		}

		// The device healed: the next overcommit burst must flush normally.
		m.BeginEvictionBatch(p)
		for i := prefill + 40; i < prefill+80; i++ {
			it := item(i, 32*1024)
			items = append(items, it)
			m.Store(p, it)
		}
		m.EndEvictionBatch(p)
		if m.FlushWrites == flushes0 {
			t.Errorf("no successful flush after faults disarmed")
		}
	})
}

// TestAbortEvictionBatchesTearsDownWindows is the crash-window regression: a
// crash while an eviction-coalescing window is open must tear the window
// down so a later restart never resumes the half-open batch — the orphaned
// EndEvictionBatch is a no-op and the manager stays fully usable.
func TestAbortEvictionBatchesTearsDownWindows(t *testing.T) {
	env := sim.NewEnv()
	dev := blockdev.New(env, blockdev.SATA(), 8<<30)
	cache := pagecache.New(env, dev, pagecache.DefaultParams())
	m := New(env, Config{
		Slab:   slab.Config{MemLimit: 4 << 20},
		Policy: PolicyDirect,
	}, cache.OpenFile(0, 4<<30))
	sim.Drive(t, env, "op", func(p *sim.Proc) {
		for i := 0; i < 200; i++ {
			m.Store(p, item(i, 32*1024))
		}
		m.BeginEvictionBatch(p)
		for i := 200; i < 240; i++ {
			m.Store(p, item(i, 32*1024))
		}
		drops0, flushes0 := m.DropEvictions, m.FlushWrites

		// The crash path.
		m.AbortEvictionBatches()

		if m.AbortedWindows != 1 {
			t.Errorf("AbortedWindows = %d, want 1", m.AbortedWindows)
		}
		if m.DropEvictions == drops0 {
			t.Errorf("aborted window shed no staged victims")
		}
		// The worker eventually unwinds to its EndEvictionBatch: no window
		// exists anymore, so nothing may be flushed or double-freed.
		m.EndEvictionBatch(p)
		if m.FlushWrites != flushes0 {
			t.Errorf("EndEvictionBatch after abort performed a flush")
		}
		// Idempotent with no windows open.
		m.AbortEvictionBatches()
		if m.AbortedWindows != 1 {
			t.Errorf("AbortedWindows = %d after idempotent abort, want 1", m.AbortedWindows)
		}

		// Still fully usable, including fresh coalesced evictions.
		m.BeginEvictionBatch(p)
		for i := 240; i < 280; i++ {
			m.Store(p, item(i, 32*1024))
		}
		m.EndEvictionBatch(p)
		if m.FlushWrites == flushes0 {
			t.Errorf("no flush after a post-abort coalesced burst")
		}
		it := item(9999, 32*1024)
		if err := m.Store(p, it); err != nil {
			t.Errorf("post-abort store failed: %v", err)
		} else if v, err := m.Load(p, it); err != nil || v != 9999 {
			t.Errorf("post-abort load = (%v,%v)", v, err)
		}
	})
	_ = dev
}

// TestRecoverBumpPointerClearsUncommittedLastPage: a power cut between the
// last page's data write and its commit record leaves the highest durable
// extent one sector short of that page's end. Recovery pools the page as
// uncommitted, so its rebuilt bump pointer must clear the whole region — or
// the next fresh page starts inside the pooled one, on its commit sector.
func TestRecoverBumpPointerClearsUncommittedLastPage(t *testing.T) {
	env, m, _ := newRecoveryRig(1, 0)
	stop := false
	sim.Drive(t, env, "drv", recoveryDriver(m, 150, &stop))
	var last *ssdPage
	for e := m.ssdLRU.Back(); e != nil; e = e.Prev() {
		if pg := e.Value.ssdPage; last == nil || pg.base > last.base {
			last = pg
		}
	}
	if last == nil || last.base+last.size != m.ssdNext {
		t.Fatalf("fixture: no page at the end of the arena")
	}
	m.file.Discard(commitOff(last.base, last.size)) // the commit write never happened
	sim.Drive(t, env, "recover", func(p *sim.Proc) {
		if _, rep := m.Recover(p); rep.PagesUncommitted != 1 {
			t.Errorf("PagesUncommitted = %d, want 1", rep.PagesUncommitted)
		}
	})
	if want := last.base + last.size; m.ssdNext != want {
		t.Errorf("bump pointer %d after recovery, the pooled last page ends at %d", m.ssdNext, want)
	}
	checkArena(t, m, true)
}

// Two committed copies of one key on the media — the stale slot's
// invalidation never reached the device — and a cold restart: the copy in the
// page with the higher epoch wins, the loser's slot is invalidated so no later
// restart can resurrect it, its page counts one live slot fewer, and its item
// goes back on the free list.
func TestRecoverResolvesDuplicateKeyByEpoch(t *testing.T) {
	env, m, _ := newRecoveryRig(1, 0)
	older, newer := item(0, 32*1024), item(0, 32*1024)
	older.Value, newer.Value = "older", "newer"
	sim.Drive(t, env, "drv", func(p *sim.Proc) {
		m.Store(p, older)
		for i := 1; i < 150; i++ {
			if i == 75 {
				m.Store(p, newer) // same key, and nobody releases the first copy
			}
			m.Store(p, item(i, 32*1024))
		}
	})
	if !older.onSSD || !newer.onSSD || older.ssdPage == newer.ssdPage {
		t.Fatalf("fixture: the two copies must sit in two flushed pages (onSSD %v / %v)", older.onSSD, newer.onSSD)
	}
	loserOff, loserBase := older.ssdOff, older.ssdPage.base
	siblings := older.ssdPage.live - 1

	sim.Drive(t, env, "recover", func(p *sim.Proc) {
		items, _ := m.Recover(p)
		var copies []any
		var loserPage *ssdPage
		for _, it := range items {
			if it.Key == older.Key {
				copies = append(copies, it.Value)
			}
			if it.ssdPage.base == loserBase {
				loserPage = it.ssdPage
			}
		}
		if loserPage == nil || loserPage.live != siblings {
			t.Errorf("the loser's page after recovery: %+v, want its %d other items live", loserPage, siblings)
		}
		if len(copies) != 1 || copies[0] != "newer" {
			t.Errorf("recovered copies of the duplicated key: %v, want only the higher epoch's", copies)
		}
		// The scan made an item per copy and held each until it was done:
		// the winners keep the manager's residency hold alone, the loser none.
		for _, it := range items {
			if n := pool.Holders(it); n != 1 {
				t.Errorf("recovered %q has %d holds, want 1 (resident)", it.Key, n)
				break
			}
		}
		if m.Items.Len() != 1 {
			t.Errorf("%d items free after recovery, want 1: the demoted copy", m.Items.Len())
		}
	})
	if _, ok := m.file.PeekDurable(loserOff); ok {
		t.Error("the losing copy's slot is still durable: the next cold restart would meet it again")
	}
	checkArena(t, m, true)
}
