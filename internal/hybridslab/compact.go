// Relocation: moving the live items of an SSD flush region into a fresh,
// dense one. Two policies select regions for it. Compaction picks sparse
// ones: page-granular reclaim (fatcache-style) leaves dead slots inside
// regions whose other items are still live, and under delete/replace churn
// the arena fills with holes; rewriting the live remainder densely returns
// the old region to the free pool — the flash-friendly sequential rewrite a
// real SSD cache performs during maintenance windows. Evacuation
// (EvacuateQuarantined, integrity.go) picks quarantined ones: suspect media
// is drained onto trusted media before the scrub pass reclaims it.
package hybridslab

import (
	"sort"

	"hybridkv/internal/sim"
)

// liveRegion is one flush region and the live items in it, coldest first.
type liveRegion struct {
	pg    *ssdPage
	items []*Item
}

// liveRegions scans the SSD recency list once, groups the live items by
// flush region, and returns the regions pred selects in arena order
// (deterministic), each marked relocating: from here on the region is the
// relocation's to retire — freeSSD leaves it out of the pool however many of
// its items die before relocate gets to it. A region another relocation
// already holds is not offered.
func (m *Manager) liveRegions(pred func(pg *ssdPage, live []*Item) bool) []liveRegion {
	groups := make(map[*ssdPage][]*Item)
	for e := m.ssdLRU.Back(); e != nil; e = e.Prev() {
		if pg := e.Value.ssdPage; pg != nil && !pg.relocating {
			groups[pg] = append(groups[pg], e.Value)
		}
	}
	var regions []liveRegion
	for pg, items := range groups {
		if pred(pg, items) {
			pg.relocating = true
			regions = append(regions, liveRegion{pg, items})
		}
	}
	sort.Slice(regions, func(i, j int) bool { return regions[i].pg.base < regions[j].pg.base })
	return regions
}

// relocate moves the live items of region old (marked by liveRegions) into
// one fresh, dense region. Every item's slot is read back first — one
// scattered read each; relocation runs in the background, off the request
// path — and verified exactly as a Load verifies it (readSlot): what is
// rewritten is what the media still holds, never the in-memory item under a
// fresh checksum. Items that fail are retired and returned, so the store can
// drop their table entries and open replica repairs; items released or
// replaced meanwhile are skipped. The survivors are written through writeRun,
// in the crash-consistent format of every flush: a crash mid-relocation
// leaves the old region authoritative and the half-written new one
// uncommitted. So does a refused write or an exhausted arena (a later pass
// retries).
//
// It returns the fresh region (nil when none landed) and false when a cold
// restart abandoned the relocation: the caller must stop. Otherwise old is
// unmarked and, once its last slot is gone, pooled — unless it is
// quarantined, when ReclaimQuarantined owns its release.
func (m *Manager) relocate(p *sim.Proc, old *ssdPage, items []*Item) (fresh *ssdPage, corrupt []*Item, alive bool) {
	gen0 := m.gen
	class := items[0].class
	scheme := m.flushScheme(class)
	keep := items[:0]
	for _, it := range items {
		_, state := m.readSlot(p, it, scheme)
		if m.gen != gen0 {
			return nil, corrupt, false
		}
		switch state {
		case slotClean:
			keep = append(keep, it)
		case slotLost:
			m.retire(it)
			corrupt = append(corrupt, it)
		case slotCorrupt:
			m.quarantineCorrupt(it)
			corrupt = append(corrupt, it)
		}
	}
	if len(keep) > 0 {
		job := flushJob{victims: keep, class: class, chunk: m.alloc.ChunkSize(class), gen: gen0}
		if base, ok := m.ssdAlloc(job.size()); ok {
			switch m.writeRun(p, []flushJob{job}, base, scheme) {
			case runAbandoned:
				return nil, corrupt, false
			case runLanded:
				fresh = m.relink(job, base)
			}
		}
	}
	old.relocating = false
	if old.live == 0 && !old.quarantined {
		m.retireRegion(old)
	}
	return fresh, corrupt, true
}

// relink moves a relocation's survivors to their slots in the region just
// written at base. An item released, replaced or scavenged while the write
// was in flight gives its new slot up; the others free their old slot by
// hand — the old region's retirement is relocate's, so freeSSD's pooling path
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

// Compact relocates every flush region whose live share is at or below
// liveThreshold (e.g. 0.5 = half dead), charging p the slot reads and the
// dense rewrites. It returns the number of arena bytes reclaimed.
func (m *Manager) Compact(p *sim.Proc, liveThreshold float64) (reclaimed int64) {
	if m.file == nil {
		return 0
	}
	// Quarantined regions are the scrub pass's to drain and reclaim
	// (EvacuateQuarantined); the compactor must not pool suspect media.
	sparse := m.liveRegions(func(pg *ssdPage, live []*Item) bool {
		liveBytes := len(live) * m.alloc.ChunkSize(live[0].class)
		return !pg.quarantined && float64(liveBytes) <= liveThreshold*float64(pg.size)
	})
	for _, r := range sparse {
		fresh, _, alive := m.relocate(p, r.pg, r.items)
		if !alive {
			break
		}
		if fresh != nil {
			m.Compactions++
			reclaimed += r.pg.size - fresh.size
		}
	}
	return reclaimed
}
