package hybridslab

import (
	"sort"

	"hybridkv/internal/sim"
)

// SSD arena compaction. Page-granular reclaim (fatcache-style) leaves dead
// slots inside flush regions whose other items are still live; under
// delete/replace churn the arena fills with holes. Compact rewrites the
// live remainder of fragmented regions into fresh, dense regions and
// returns the old regions to the free pool — the flash-friendly sequential
// rewrite a real SSD cache performs during maintenance windows.

// Compact rewrites every flush region whose live share is at or below
// liveThreshold (e.g. 0.5 = half dead), charging p the region reads and the
// batched rewrite. It returns the number of arena bytes reclaimed.
func (m *Manager) Compact(p *sim.Proc, liveThreshold float64) int64 {
	if m.file == nil {
		return 0
	}
	// Group live SSD items by their flush region.
	groups := make(map[*ssdPage][]*Item)
	for e := m.ssdLRU.Back(); e != nil; e = e.Prev() {
		it := e.Value
		// Quarantined regions are the scrub pass's to drain and reclaim
		// (EvacuateQuarantined); the compactor must not pool suspect media.
		if it.ssdPage != nil && !it.ssdPage.quarantined {
			groups[it.ssdPage] = append(groups[it.ssdPage], it)
		}
	}
	// Deterministic processing order.
	pages := make([]*ssdPage, 0, len(groups))
	for pg := range groups {
		pages = append(pages, pg)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i].base < pages[j].base })

	var reclaimed int64
	for _, pg := range pages {
		items := groups[pg]
		liveBytes := 0
		for _, it := range items {
			liveBytes += m.alloc.ChunkSize(it.class)
		}
		if float64(liveBytes) > liveThreshold*float64(pg.size) {
			continue // dense enough
		}
		reclaimed += m.compactPage(p, pg, items)
	}
	return reclaimed
}

// compactPage moves a region's live items into a fresh dense region.
func (m *Manager) compactPage(p *sim.Proc, pg *ssdPage, items []*Item) int64 {
	if len(items) == 0 {
		return 0
	}
	pg.relocating = true
	gen0 := m.gen
	class := items[0].class
	chunk := m.alloc.ChunkSize(class)
	// Read the live chunks (one scattered read per item — compaction runs
	// in the background, so latency is off the request path), then write
	// the dense region in one sweep.
	scheme := m.flushScheme(class)
	for _, it := range items {
		if _, okR := m.file.Read(p, it.ssdOff, chunk, scheme); !okR {
			// Raced with corruption; the item will be retired on its next
			// Load. Skip it here.
			continue
		}
		if m.gen != gen0 {
			return 0 // cold restart mid-compaction: abandon
		}
	}
	fresh, _ := m.rewrite(p, pg, items)
	if fresh == nil {
		return 0
	}
	m.Compactions++
	return pg.size - fresh.size
}

// rewrite is the second half of a relocation: the items of region old that
// are to survive move into one fresh, dense region, written through writeRun
// in the crash-consistent format of every flush — a crash mid-relocation
// leaves the old region authoritative and the half-written new one
// uncommitted. So does a refused write or an exhausted arena (a later pass
// retries). It returns the fresh region, nil when none landed, and false
// when a cold restart abandoned the relocation: the caller must stop.
//
// old is marked relocating, so it is rewrite's to retire: freeSSD does not
// pool it while the write is in flight, however many of its items die, and
// rewrite pools it once its last slot is gone — unless it is quarantined,
// when ReclaimQuarantined owns its release.
func (m *Manager) rewrite(p *sim.Proc, old *ssdPage, keep []*Item) (fresh *ssdPage, alive bool) {
	if len(keep) > 0 {
		class := keep[0].class
		job := flushJob{victims: keep, class: class, chunk: m.alloc.ChunkSize(class), gen: m.gen}
		if base, ok := m.ssdAlloc(job.size()); ok {
			switch m.writeRun(p, []flushJob{job}, base, m.flushScheme(class)) {
			case runAbandoned:
				return nil, false
			case runLanded:
				fresh = m.relink(job, base)
			}
		}
	}
	old.relocating = false
	if old.live == 0 && !old.quarantined {
		m.retireRegion(old)
	}
	return fresh, true
}

// relink moves a relocation's survivors to their slots in the region just
// written at base. An item released, replaced or scavenged while the write
// was in flight gives its new slot up; the others free their old slot by
// hand — the old region's retirement is rewrite's, so freeSSD's pooling path
// must not run.
func (m *Manager) relink(job flushJob, base int64) *ssdPage {
	pg := &ssdPage{base: base, size: job.size()}
	for i, it := range job.victims {
		off := slotOff(base, i, job.chunk)
		if it.dropped {
			m.file.Discard(off)
			continue
		}
		m.file.Discard(it.ssdOff)
		it.ssdPage.live--
		it.ssdOff, it.ssdPage = off, pg
		pg.live++
	}
	m.settle(pg)
	return pg
}

// StartCompactor runs Compact every interval until StopCompactor is called.
func (m *Manager) StartCompactor(interval sim.Time, liveThreshold float64) {
	if m.compactStop != nil {
		panic("hybridslab: compactor already running")
	}
	if interval <= 0 {
		interval = sim.Second
	}
	m.compactStop = m.env.NewEvent()
	stop := m.compactStop
	m.env.Spawn("ssd-compactor", func(p *sim.Proc) {
		for {
			if p.WaitTimeout(stop, interval) {
				return
			}
			m.Compact(p, liveThreshold)
		}
	})
}

// StopCompactor terminates the background compactor.
func (m *Manager) StopCompactor() {
	if m.compactStop == nil {
		return
	}
	m.compactStop.Fire()
	m.compactStop = nil
}
