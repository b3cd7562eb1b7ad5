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

// compactPage moves a region's live items into a fresh dense region. The
// rewrite uses the same crash-consistent format as eviction flushes: a
// checksummed header plus per-slot item records, committed by a journaled
// commit record — a crash mid-compaction leaves the old region authoritative
// and the half-written new region uncommitted.
func (m *Manager) compactPage(p *sim.Proc, pg *ssdPage, items []*Item) int64 {
	if len(items) == 0 {
		return 0
	}
	pg.compacting = true
	gen0 := m.gen
	class := items[0].class
	chunk := m.alloc.ChunkSize(class)
	newSize := regionSize(len(items), chunk)
	newBase, ok := m.ssdAlloc(newSize)
	if !ok {
		pg.compacting = false
		return 0 // arena exhausted; leave the region as is
	}
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
	job := flushJob{victims: items, class: class, chunk: chunk, gen: gen0}
	switch m.writeRun(p, []flushJob{job}, newBase, scheme) {
	case runAbandoned:
		return 0
	case runRefused:
		// Device write error: the old region stays authoritative.
		pg.compacting = false
		return 0
	}
	newPg := &ssdPage{base: newBase, size: newSize}
	for i, it := range items {
		off := slotOff(newBase, i, chunk)
		if it.dropped || !it.onSSD {
			m.file.Discard(off)
			continue
		}
		m.file.Discard(it.ssdOff)
		it.ssdOff = off
		it.ssdPage = newPg
		newPg.live++
	}
	// Retire the old region entirely.
	m.retireRegion(pg)
	m.ssdUsed += newSize
	m.Compactions++
	return pg.size - newSize
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
