package store

import (
	"sort"

	"hybridkv/internal/protocol"
)

// This file implements hot-key detection: a space-saving top-K sketch
// (Metwally et al.) fed inline by the store's access path. The sketch keeps
// a fixed roster of candidate keys with approximate counts; when a new key
// arrives and the roster is full, the minimum-count entry is replaced and
// the newcomer inherits min+1 — the classic over-estimate that guarantees
// any key with true frequency above min is in the roster. Reads the server
// never serves (one-sided bypass GETs) reach it as samples riding the
// clients' hot-set refreshes (NoteHeat). The crawler
// periodically distills the roster into a published hot set (key digests
// above a share threshold) and then ages the counts so yesterday's
// celebrity cools off.

const (
	// hotSketchCap bounds the candidate roster. 64 entries comfortably
	// covers any plausible number of simultaneously hot keys while keeping
	// the per-access update O(1) amortized (the min scan only runs on
	// roster replacement).
	hotSketchCap = 64
	// hotPublishMax bounds the published hot set: the wire payload rides
	// the OpDirQuery bootstrap and fan-out only helps for keys hot enough
	// to saturate a server, so a short head is all that matters.
	hotPublishMax = 16
	// hotMinShare is the minimum share of sketch-window accesses a key
	// needs to be published hot. 2% of traffic on one key out of a zipf
	// keyspace is already an order of magnitude above the typical rank.
	hotMinShare = 0.02
	// hotMinCount keeps tiny windows (a handful of touches between crawl
	// passes) from promoting noise.
	hotMinCount = 16
	// hotAgeWindow is the touch volume after which a crawl pass halves the
	// sketch. Aging by observed traffic rather than by wall time keeps
	// detection independent of the crawl cadence: a fast crawler over a slow
	// sample stream must not decay counts faster than they accumulate.
	hotAgeWindow = 2048
)

// hotEntry is one space-saving roster slot. count is the usual
// over-estimate; err is the count inherited when the entry displaced its
// predecessor, so count-err is a guaranteed lower bound on the key's true
// frequency — that bound is what publication thresholds compare against,
// keeping roster-churn keys (count ≈ err+1) out of the hot set.
type hotEntry struct {
	key        string
	count, err int64
}

// hotSketch is the store's space-saving top-K structure. It is not
// goroutine-safe; the store serializes access (sim processes interleave
// only at sleep points and Touch never sleeps).
type hotSketch struct {
	cap     int
	idx     map[string]int // key -> entries index
	entries []hotEntry
	total   int64 // touches since the last Age
}

func newHotSketch(capacity int) *hotSketch {
	return &hotSketch{
		cap: capacity,
		idx: make(map[string]int, capacity),
	}
}

// Touch records one access. O(1) when the key is already a candidate or
// the roster has room; O(cap) linear min-scan on replacement.
func (h *hotSketch) Touch(key string) {
	h.total++
	if i, ok := h.idx[key]; ok {
		h.entries[i].count++
		return
	}
	if len(h.entries) < h.cap {
		h.idx[key] = len(h.entries)
		h.entries = append(h.entries, hotEntry{key: key, count: 1})
		return
	}
	// Replace the deterministic minimum: lowest count, lowest index on
	// ties (stable under the deterministic insertion order, never map
	// iteration order — the simulation must replay identically).
	min := 0
	for i := 1; i < len(h.entries); i++ {
		if h.entries[i].count < h.entries[min].count {
			min = i
		}
	}
	delete(h.idx, h.entries[min].key)
	h.idx[key] = min
	h.entries[min] = hotEntry{
		key:   key,
		count: h.entries[min].count + 1,
		err:   h.entries[min].count,
	}
}

// Age halves every count and drops zeroed entries, so the sketch tracks
// recent traffic rather than all-time totals. Called after each hot-set
// distillation.
func (h *hotSketch) Age() {
	kept := h.entries[:0]
	for _, e := range h.entries {
		e.count /= 2
		e.err /= 2
		if e.count > 0 {
			kept = append(kept, e)
		}
	}
	h.entries = kept
	h.idx = make(map[string]int, len(h.entries))
	for i, e := range h.entries {
		h.idx[e.key] = i
	}
	h.total /= 2
}

// Hot distills the roster into the published hot set: digests of keys whose
// count clears both the share and absolute floors, hottest first, capped at
// hotPublishMax, then digest-sorted for a canonical wire representation.
func (h *hotSketch) Hot() []uint64 {
	floor := int64(hotMinShare * float64(h.total))
	if floor < hotMinCount {
		floor = hotMinCount
	}
	cand := make([]hotEntry, 0, len(h.entries))
	for _, e := range h.entries {
		if e.count-e.err >= floor {
			cand = append(cand, e)
		}
	}
	sort.Slice(cand, func(i, j int) bool {
		if cand[i].count != cand[j].count {
			return cand[i].count > cand[j].count
		}
		return cand[i].key < cand[j].key
	})
	if len(cand) > hotPublishMax {
		cand = cand[:hotPublishMax]
	}
	hot := make([]uint64, len(cand))
	for i, e := range cand {
		hot[i] = protocol.KeyDigest(e.key)
	}
	sort.Slice(hot, func(i, j int) bool { return hot[i] < hot[j] })
	return hot
}

// refreshHotSet distills the sketch into the store's published hot set and
// bumps the version only when membership changed, then ages the sketch once
// it has absorbed a full window of touches. The crawler calls this once per
// pass; clients learn the new set on their next directory query.
func (s *Store) refreshHotSet() {
	hot := s.hot.Hot()
	if !digestsEqual(hot, s.hotSet) {
		s.hotSet = hot
		s.hotVersion++
	}
	if s.hot.total >= hotAgeWindow {
		s.hot.Age()
	}
}

// NoteHeat counts one read of key that the store never served — a GET a
// client resolved one-sided, reported on its hot-set refresh — in the heat
// sketch, as Get counts the reads it serves.
func (s *Store) NoteHeat(key string) { s.hot.Touch(key) }

// Heat returns key's count in the heat sketch: 0 when it is no candidate.
func (s *Store) Heat(key string) int64 {
	if i, ok := s.hot.idx[key]; ok {
		return s.hot.entries[i].count
	}
	return 0
}

// HotSnapshot returns the currently published hot-key digests and the set's
// version. The slice is shared, not copied: callers must treat it as
// immutable (the store replaces, never mutates, the published set).
func (s *Store) HotSnapshot() ([]uint64, uint64) {
	return s.hotSet, s.hotVersion
}

func digestsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
