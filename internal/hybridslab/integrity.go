// Read integrity: every read of an SSD slot — a Get's, a relocation's —
// re-checks the page-header checksum and the header's per-slot key digest
// against the record just read — the same validation recovery applies, moved
// onto the read path so latent media corruption (bit-rot) is caught when it
// is read, not only after the next crash. A failed check retires the item,
// quarantines the whole region (the allocator must not place fresh data on
// suspect media), and surfaces a typed ErrCorrupt so the server can repair
// from replicas instead of answering with garbage or a silent miss.
package hybridslab

import (
	"errors"

	"hybridkv/internal/blockdev"
	"hybridkv/internal/pagecache"
	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
)

// ErrCorrupt marks an SSD read whose contents failed integrity
// verification: the value is gone locally and its region is quarantined.
// Distinct from ErrDropped (a legal eviction) so the store layer can turn
// it into a replica repair-pull instead of a plain miss.
var ErrCorrupt = errors.New("hybridslab: on-SSD contents failed integrity verification")

// slotState is what reading an item's SSD slot back found.
type slotState int

const (
	// slotClean: the value returned is the item's.
	slotClean slotState = iota
	// slotGone: the item was released or replaced, or its incarnation torn
	// down by a cold restart, before the read returned.
	slotGone
	// slotLost: the extent is gone while the item still claims it — an
	// uncorrectable device read (or injected corruption).
	slotLost
	// slotCorrupt: bits came back, and they fail verification.
	slotCorrupt
)

// readSlot is the one read of an SSD slot and the one statement of the
// verify rule: it charges p the chunk read under scheme and classifies what
// came back. With verification on, the read must return an item record the
// media did not rot, and one verifySlot accepts against the region header;
// anything else is slotCorrupt, and the bits are never surfaced. The check
// itself charges no extra time — it rides the chunk read already paid for —
// so defense and nodefense cells stay time-comparable. With NoVerify nothing
// is checked, and rotted bits are served as a garbled value: the silent-
// corruption failure mode the nodefense cells of the bitrot experiment
// measure. What the caller does about a slot that is not clean — retire the
// item, quarantine the region — is the caller's.
func (m *Manager) readSlot(p *sim.Proc, it *Item, scheme pagecache.Scheme) (any, slotState) {
	off := it.ssdOff
	v, ok := m.file.Read(p, off, m.alloc.ChunkSize(it.class), scheme)
	switch {
	case it.gen != m.gen || it.dropped:
		return nil, slotGone
	case it.ssdOff != off:
		// A relocation moved the item while the read slept. The page cache
		// looks the extent up after charging the device, so what came back
		// is whatever the old slot holds by now — nothing, once relink has
		// discarded it — and says nothing about the item, which is live at
		// its new slot. Read that one, charged like any read.
		return m.readSlot(p, it, scheme)
	case !ok:
		return nil, slotLost
	}
	rot, rotted := v.(blockdev.Rotted)
	if rotted {
		v = rot.Payload
	}
	// Slots store the full item record (key and metadata ride along for
	// recovery); the value is what a reader wants.
	rec, isRec := v.(*itemRecord)
	if isRec {
		v = rec.Value
	}
	switch {
	case m.cfg.NoVerify && rotted:
		return protocol.Garbled{Inner: v}, slotClean
	case m.cfg.NoVerify:
		return v, slotClean
	case rotted || !isRec || !m.verifySlot(it, rec):
		return nil, slotCorrupt
	}
	return v, slotClean
}

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
	return im.Digest == protocol.FNV1a(rec.Key) && im.Len == rec.ValueSize && rec.Key == it.Key
}

// quarantineCorrupt retires an item whose slot failed verification and
// quarantines its region: the slot is freed, but the region never returns
// to the free pool until ReclaimQuarantined releases it.
func (m *Manager) quarantineCorrupt(it *Item) {
	if pg := it.ssdPage; !pg.quarantined {
		pg.quarantined = true
		m.quarantine = append(m.quarantine, pg)
		m.QuarantinedPages++
	}
	m.retire(it)
}

// retire gives up an SSD-resident item whose slot cannot be read back. A
// cache may lose data: the key reads as a miss from here on, and the client
// re-populates it from the backend (or the server from a replica).
func (m *Manager) retire(it *Item) {
	m.ssdLRU.Remove(&it.lru)
	m.freeSSD(it)
	it.Value = nil
	it.dropped = true
	m.CorruptLoads++
	m.event(it, EvictDropped)
	it.Unhold()
}

// ReclaimQuarantined releases fully-dead quarantined regions back to the
// free pool — the scrub pass calls this after its repair round, which is
// what "the allocator never reuses a corrupt page until scrubbed" means
// operationally. Regions still holding live slots stay quarantined until
// their last slot is freed, and one being evacuated is the relocation's
// until it is done. Returns the number of regions reclaimed.
func (m *Manager) ReclaimQuarantined() int {
	if len(m.quarantine) == 0 {
		return 0
	}
	kept := m.quarantine[:0]
	n := 0
	for _, pg := range m.quarantine {
		if pg.live > 0 || pg.relocating {
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

// EvacuateQuarantined is the scrub pass over quarantined media: relocate,
// over every quarantined region still holding live slots. Each slot is
// re-read from the device and re-verified; those that verify clean move to a
// fresh dense region on trusted media, those that fail are retired and
// returned so the store can drop their table entries and open replica
// repairs. After a full evacuation the regions hold no live slots, and
// ReclaimQuarantined returns them to the free pool — which together is what
// "a corrupt page is never reused until scrubbed" means operationally:
// suspect media is drained, re-verified, and only then reclaimed. On a write
// failure the old slots stay authoritative (still quarantined, so nothing
// new lands there) and the next scrub round retries. Each corrupt item comes
// back held, and the caller lets go of it (Item.Unhold) once it is done with
// it.
func (m *Manager) EvacuateQuarantined(p *sim.Proc) (moved int, corrupt []*Item) {
	if m.file == nil || len(m.quarantine) == 0 {
		return 0, nil
	}
	for _, r := range m.liveRegions(func(pg *ssdPage, _ []*Item) bool { return pg.quarantined }) {
		fresh, bad, alive := m.relocate(p, r.pg, r.items)
		corrupt = append(corrupt, bad...)
		if !alive {
			break // the rest are an older incarnation's: no holds to give up
		}
		if fresh != nil {
			moved += fresh.live
			m.QuarantineEvacuated += int64(fresh.live)
		}
	}
	return moved, corrupt
}
