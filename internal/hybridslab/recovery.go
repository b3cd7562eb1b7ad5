// Cold-restart recovery: rebuilding the hybrid store from the SSD.
//
// A cold restart (machine power-cycle) loses everything in RAM — the slab
// arena, the recency lists, the item index — but the SSD keeps whatever
// flush pages were durably committed. Recover scans the arena, validates
// each page header against its journaled commit record and per-slot digests,
// discards torn or uncommitted pages, and rebuilds the item index, the SSD
// recency list, and the arena allocator's free map. The recovery state
// machine per page is:
//
//	header torn/invalid      -> discard (counted torn)
//	commit missing/mismatch  -> discard + region to free pool (uncommitted)
//	any listed slot torn or
//	digest/length mismatch   -> discard + region to free pool (torn)
//	all slots missing        -> discard + region to free pool (empty)
//	otherwise                -> page recovered; missing slots were freed
//	                            before the crash and stay missing
package hybridslab

import (
	"sort"

	"hybridkv/internal/sim"
	"hybridkv/internal/slab"
)

// RecoveryReport summarizes one cold-restart recovery scan.
type RecoveryReport struct {
	PagesScanned   int64
	PagesRecovered int64
	PagesDiscarded int64 // scanned - recovered
	// PagesTorn / PagesUncommitted classify the discards: a torn header or
	// slot under a committed header, versus a missing or mismatched commit
	// record (the crashed-between-data-and-commit window).
	PagesTorn        int64
	PagesUncommitted int64
	ItemsRecovered   int64
	// ItemsMissing counts header-listed slots with no durable extent: slots
	// invalidated (freed, replaced) before the crash.
	ItemsMissing int64
	// BytesRecovered is the arena space re-accounted as live.
	BytesRecovered int64
	// MaxCAS is the highest CAS token among recovered items; the store's
	// CAS counter must resume above it.
	MaxCAS uint64
	// Elapsed is the virtual time the scan took.
	Elapsed sim.Time
}

// AbortEvictionBatches tears down every open eviction-coalescing window:
// their staged victims' RAM chunks were freed at staging time and their SSD
// writes never happened, so the items are shed. Server.Crash calls this so
// a later Restart never resumes a half-open batch; the suspended worker's
// eventual EndEvictionBatch finds no window and is a no-op.
func (m *Manager) AbortEvictionBatches() {
	if len(m.windows) == 0 {
		return
	}
	procs := make([]*sim.Proc, 0, len(m.windows))
	for p := range m.windows {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i].Name() < procs[j].Name() })
	for _, p := range procs {
		w := m.windows[p]
		delete(m.windows, p)
		for _, job := range w.jobs {
			m.dropJob(job)
			m.jobDone()
		}
		m.AbortedWindows++
	}
}

// WipeSSD discards every durable extent of the backing file, modeling a
// node brought back on replacement hardware: a subsequent cold-restart
// recovery scan finds an empty device. RAM-side state is untouched; pair
// with Server.Kill + RestartCold.
func (m *Manager) WipeSSD() {
	if m.file == nil {
		return
	}
	for _, off := range m.file.DurableOffsets() {
		m.file.Discard(off)
	}
}

// resetVolatile discards every RAM-side structure, modeling the cold
// restart itself. The manager's generation bumps so workers suspended in
// I/O across the crash abandon their work on resume.
func (m *Manager) resetVolatile() {
	m.gen++
	m.alloc = slab.New(m.cfg.Slab)
	m.lrus = make([]slab.LRU[*Item], m.alloc.NumClasses())
	m.ssdLRU = slab.LRU[*Item]{}
	m.flushing = 0
	m.flushFailStreak = 0
	m.windows = make(map[*sim.Proc]*evictionWindow)
	m.ssdUsed = 0
	m.ssdNext = 0
	m.ssdFree = make(map[int64][]int64)
	// Quarantine state is volatile: recovery re-validates every region by
	// checksum anyway, and still-rotten media re-fails verification (and
	// re-quarantines) on the next foreground read.
	m.quarantine = nil
	// Workers parked on the old flush event belong to the old incarnation;
	// they stay parked. New waiters get a fresh event.
	m.flushEv = m.env.NewEvent()
}

// recPage is one committed page met by the scan, pending final assembly.
type recPage struct {
	pg    *ssdPage
	items []*Item
}

// Recover rebuilds the manager from the SSD after a cold restart and
// returns the recovered items for the store to re-index. The scan charges
// one sequential read over the used arena extent plus the in-place header
// validation; while it runs, Store/Load fail fast with ErrRecovering.
func (m *Manager) Recover(p *sim.Proc) ([]*Item, RecoveryReport) {
	var rep RecoveryReport
	t0 := p.Now()
	m.resetVolatile()
	if m.file == nil {
		return nil, rep
	}
	m.recovering = true
	defer func() { m.recovering = false }()

	// The page cache is cold and the logical view is whatever the media
	// durably holds.
	m.file.RecoverExtents()

	// The bump pointer resumes past every durable extent — fresh flushes
	// must not overwrite pages we are about to recover (or regions we free
	// below, which reenter circulation through the free pool instead).
	end := m.file.DurableEnd()
	m.ssdNext = end
	if end > 0 {
		// One sequential scan of the used arena extent.
		m.file.ReadRaw(p, 0, int(end))
	}

	byKey := make(map[string]*Item)
	epochOf := make(map[string]uint64)
	var pages []*recPage
	var maxEpoch uint64

	for _, base := range m.file.DurableOffsets() {
		e, ok := m.file.PeekDurable(base)
		if !ok {
			continue
		}
		hdr, isHdr := e.Payload.(*pageHeader)
		if !isHdr {
			continue
		}
		rep.PagesScanned++
		if e.Torn() || hdr.Magic != pageMagic || hdr.Sum != headerSum(hdr) ||
			hdr.Class < 0 || hdr.Class >= m.alloc.NumClasses() ||
			hdr.Chunk != m.alloc.ChunkSize(hdr.Class) || len(hdr.Items) == 0 {
			// Unusable header: without a trustworthy size the region is
			// stranded (it stays below ssdNext, so nothing overwrites it
			// until the space recirculates through compaction-free reuse).
			rep.PagesTorn++
			rep.PagesDiscarded++
			continue
		}
		if hdr.Epoch > maxEpoch {
			maxEpoch = hdr.Epoch
		}
		size := regionSize(len(hdr.Items), hdr.Chunk)
		// The bump pointer must clear every region the scan recovers or pools:
		// a page cut off before its commit record ends a sector past DurableEnd.
		m.ssdNext = max(m.ssdNext, base+size)

		// Commit check: the page is visible only if its commit record is
		// durable, intact, and matches the header's epoch and extent.
		ce, cok := m.file.PeekDurable(commitOff(base, size))
		cr, isCr := ce.Payload.(*commitRecord)
		committed := cok && !ce.Torn() && isCr && cr.Magic == commitMagic &&
			cr.Sum == commitSum(cr) && cr.Epoch == hdr.Epoch &&
			cr.Base == base && cr.Size == size
		if !committed {
			rep.PagesUncommitted++
			rep.PagesDiscarded++
			m.purgeRegion(base, len(hdr.Items), hdr.Chunk)
			continue
		}

		// Slot validation: every durable slot must match the header's
		// digest and length; one bad slot condemns the page (the data
		// write tore under a commit that still landed).
		pg := &ssdPage{base: base, size: size}
		rp := &recPage{pg: pg}
		corrupt := false
		missing := int64(0)
		for i, im := range hdr.Items {
			off := slotOff(base, i, hdr.Chunk)
			se, sok := m.file.PeekDurable(off)
			if !sok {
				missing++ // invalidated before the crash
				continue
			}
			rec, isRec := se.Payload.(*itemRecord)
			if se.Torn() || !isRec || keyDigest(rec.Key) != im.Digest || rec.ValueSize != im.Len {
				corrupt = true
				break
			}
			it := &Item{
				Key:       rec.Key,
				Value:     rec.Value,
				ValueSize: rec.ValueSize,
				Flags:     rec.Flags,
				CAS:       rec.CAS,
				ExpireAt:  rec.ExpireAt,
				class:     hdr.Class,
				onSSD:     true,
				ssdOff:    off,
				ssdPage:   pg,
				gen:       m.gen,
			}
			if prev, dup := byKey[rec.Key]; dup {
				// Two committed copies of one key (higher epoch wins). The
				// running system invalidates stale slots eagerly, so this
				// only arises from exotic crash interleavings — resolve it
				// conservatively rather than serving the older value.
				if hdr.Epoch > epochOf[rec.Key] {
					m.demoteRecovered(prev)
					byKey[rec.Key], epochOf[rec.Key] = it, hdr.Epoch
				} else {
					m.file.Discard(off)
					continue
				}
			} else {
				byKey[rec.Key], epochOf[rec.Key] = it, hdr.Epoch
			}
			rp.items = append(rp.items, it)
			pg.live++
			if rec.CAS > rep.MaxCAS {
				rep.MaxCAS = rec.CAS
			}
		}
		if corrupt {
			rep.PagesTorn++
			rep.PagesDiscarded++
			m.purgeRegion(base, len(hdr.Items), hdr.Chunk)
			continue
		}
		rep.ItemsMissing += missing
		if pg.live == 0 {
			// Every slot was freed before the crash.
			rep.PagesDiscarded++
			m.purgeRegion(base, len(hdr.Items), hdr.Chunk)
			continue
		}
		pages = append(pages, rp)
	}

	// Final assembly in scan order (deterministic): account live regions,
	// rebuild the SSD recency list, hand the winners to the store.
	var items []*Item
	for _, rp := range pages {
		if rp.pg.live == 0 {
			// Fully demoted by duplicate resolution after being scanned.
			rep.PagesDiscarded++
			m.recycle(rp.pg.base, rp.pg.size)
			continue
		}
		rep.PagesRecovered++
		rep.BytesRecovered += rp.pg.size
		m.ssdUsed += rp.pg.size
		for _, it := range rp.items {
			if it.dropped {
				continue
			}
			it.lru.Value = it
			m.ssdLRU.PushFront(&it.lru)
			items = append(items, it)
			rep.ItemsRecovered++
		}
	}
	if maxEpoch > m.epoch {
		m.epoch = maxEpoch
	}
	rep.Elapsed = p.Now() - t0
	return items, rep
}

// demoteRecovered drops a just-recovered item that lost duplicate-key
// resolution: its slot is invalidated and its page's live count shrinks.
func (m *Manager) demoteRecovered(it *Item) {
	m.file.Discard(it.ssdOff)
	it.ssdPage.live--
	it.Value = nil
	it.dropped = true
}
