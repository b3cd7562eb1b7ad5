// Foreground read integrity: every SSD load re-checks the page-header
// checksum and the header's per-slot key digest against the record just
// read — the same validation recovery applies, moved onto the hot read
// path so latent media corruption (bit-rot) is caught when it is read, not
// only after the next crash. A failed check retires the item, quarantines
// the whole region (the allocator must not place fresh data on suspect
// media), and surfaces a typed ErrCorrupt so the server can repair from
// replicas instead of answering with garbage or a silent miss.
package hybridslab

import (
	"errors"
	"sort"

	"hybridkv/internal/blockdev"
	"hybridkv/internal/sim"
)

// ErrCorrupt marks an SSD read whose contents failed integrity
// verification: the value is gone locally and its region is quarantined.
// Distinct from ErrDropped (a legal eviction) so the store layer can turn
// it into a replica repair-pull instead of a plain miss.
var ErrCorrupt = errors.New("hybridslab: on-SSD contents failed integrity verification")

// verifySlot re-checks a just-read slot against its region header: the
// header checksum must hold, and the header's digest and length for this
// slot must match the record. In an unfaulted run these always pass (the
// flush path wrote them consistently); under at-rest corruption that
// slipped past the Rotted fast-path they are the catch-all. The check
// charges no simulated time: it rides the chunk read the caller already
// paid for.
func (m *Manager) verifySlot(it *Item, rec *itemRecord) bool {
	pg := it.ssdPage
	if pg == nil {
		return true
	}
	hv, ok := m.file.Peek(pg.base)
	if !ok {
		return false
	}
	hdr, ok := hv.(*pageHeader)
	if !ok || hdr.Magic != pageMagic || hdr.Sum != headerSum(hdr) {
		return false
	}
	chunk := m.alloc.ChunkSize(it.class)
	if chunk <= 0 || hdr.Chunk != chunk {
		return false
	}
	slot := int((it.ssdOff - pg.base - PageHeaderSize) / int64(chunk))
	if slot < 0 || slot >= len(hdr.Items) {
		return false
	}
	im := hdr.Items[slot]
	return im.Digest == keyDigest(rec.Key) && im.Len == rec.ValueSize && rec.Key == it.Key
}

// quarantineCorrupt retires an item whose SSD read failed verification and
// quarantines its region: the slot is freed, but the region never returns
// to the free pool until ReclaimQuarantined releases it.
func (m *Manager) quarantineCorrupt(it *Item) error {
	if pg := it.ssdPage; pg != nil && !pg.quarantined {
		pg.quarantined = true
		m.quarantine = append(m.quarantine, pg)
		m.QuarantinedPages++
	}
	m.ssdLRU.Remove(&it.lru)
	m.freeSSD(it)
	it.Value = nil
	it.dropped = true
	m.CorruptLoads++
	m.event(it, EvictDropped)
	return ErrCorrupt
}

// ReclaimQuarantined releases fully-dead quarantined regions back to the
// free pool — the scrub pass calls this after its repair round, which is
// what "the allocator never reuses a corrupt page until scrubbed" means
// operationally. Regions still holding live slots stay quarantined until
// their last slot is freed. Returns the number of regions reclaimed.
func (m *Manager) ReclaimQuarantined() int {
	if len(m.quarantine) == 0 {
		return 0
	}
	kept := m.quarantine[:0]
	n := 0
	for _, pg := range m.quarantine {
		if pg.live > 0 {
			kept = append(kept, pg)
			continue
		}
		pg.quarantined = false
		m.retireRegion(pg)
		m.QuarantineReclaims++
		n++
	}
	m.quarantine = kept
	return n
}

// QuarantineHeld reports regions currently held in quarantine.
func (m *Manager) QuarantineHeld() int { return len(m.quarantine) }

// EvacuateQuarantined is the scrub pass over quarantined media: every live
// slot still sitting on a quarantined region is re-read from the device and
// re-verified. Slots that verify clean are rewritten into a fresh dense
// region (the compaction rewrite, on trusted media); slots that fail are
// retired and returned so the store can drop their table entries and open
// replica repairs. After a full evacuation the regions hold no live slots,
// and ReclaimQuarantined returns them to the free pool — which together is
// what "a corrupt page is never reused until scrubbed" means operationally:
// suspect media is drained, re-verified, and only then reclaimed.
func (m *Manager) EvacuateQuarantined(p *sim.Proc) (moved int, corrupt []*Item) {
	if m.file == nil || len(m.quarantine) == 0 {
		return 0, nil
	}
	// Group the live slots of quarantined regions, deterministically.
	groups := make(map[*ssdPage][]*Item)
	for e := m.ssdLRU.Back(); e != nil; e = e.Prev() {
		it := e.Value
		if it.ssdPage != nil && it.ssdPage.quarantined {
			groups[it.ssdPage] = append(groups[it.ssdPage], it)
		}
	}
	pages := make([]*ssdPage, 0, len(groups))
	for pg := range groups {
		pages = append(pages, pg)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i].base < pages[j].base })

	gen0 := m.gen
	for _, pg := range pages {
		var keep []*Item
		for _, it := range groups[pg] {
			chunk := m.alloc.ChunkSize(it.class)
			v, ok := m.file.Read(p, it.ssdOff, chunk, m.flushScheme(it.class))
			if m.gen != gen0 {
				return moved, corrupt // cold restart mid-scan: abandon
			}
			if it.dropped || !it.onSSD {
				continue // raced with a replace or release during the read
			}
			bad := !ok
			if !bad {
				if _, isRot := v.(blockdev.Rotted); isRot {
					bad = true
				} else if rec, isRec := v.(*itemRecord); !isRec || !m.verifySlot(it, rec) {
					bad = true
				}
			}
			if bad {
				m.ssdLRU.Remove(&it.lru)
				m.freeSSD(it)
				it.Value = nil
				it.dropped = true
				m.CorruptLoads++
				m.event(it, EvictDropped)
				corrupt = append(corrupt, it)
				continue
			}
			keep = append(keep, it)
		}
		// Rewrite the verified survivors onto trusted media. On any write
		// failure the old slots stay authoritative (still quarantined, so
		// nothing new lands there) and the next scrub round retries.
		pg.relocating = true
		fresh, alive := m.rewrite(p, pg, keep)
		if !alive {
			return moved, corrupt
		}
		if fresh != nil {
			moved += fresh.live
			m.QuarantineEvacuated += int64(fresh.live)
		}
	}
	return moved, corrupt
}
