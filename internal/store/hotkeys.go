package store

import (
	"cmp"
	"slices"
	"strings"

	"hybridkv/internal/keytab"
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
	// the per-access update a few heap steps (hotSketch.heap).
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
	key        protocol.Key
	count, err int64
	at         int // its place in hotSketch.heap
}

// hotSketch is the store's space-saving top-K structure. It is not
// goroutine-safe; the store serializes access (sim processes interleave
// only at sleep points and Touch never sleeps).
type hotSketch struct {
	cap     int
	idx     keytab.Table[int] // key -> entries index
	entries []hotEntry
	// heap holds the entries' indices in a min-heap by (count, index), so
	// its root is the entry a replacement takes: the lowest count, the
	// lowest index on ties (stable under the deterministic insertion order,
	// never map iteration order — the simulation must replay identically).
	heap  []int
	total int64 // touches since the last Age

	cand []hotEntry // Hot's scratch: the candidates, and the set it returns
	hot  []uint64
}

func newHotSketch(capacity int) *hotSketch {
	return &hotSketch{cap: capacity}
}

// Touch records one access: a count raised and its entry sifted down the
// heap, a new entry sifted up, or the heap's root replaced and sifted down.
func (h *hotSketch) Touch(k protocol.Key) {
	h.total++
	if i, ok := h.idx.Get(k); ok {
		h.entries[i].count++
		h.down(h.entries[i].at)
		return
	}
	if n := len(h.entries); n < h.cap {
		h.idx.Put(k, n)
		h.entries = append(h.entries, hotEntry{key: k, count: 1, at: n})
		h.heap = append(h.heap, n)
		h.up(n)
		return
	}
	min := h.heap[0]
	h.idx.Delete(h.entries[min].key)
	h.idx.Put(k, min)
	h.entries[min] = hotEntry{
		key:   k,
		count: h.entries[min].count + 1,
		err:   h.entries[min].count,
	}
	h.down(0)
}

// less orders heap places i and j by their entries' (count, index).
func (h *hotSketch) less(i, j int) bool {
	a, b := h.heap[i], h.heap[j]
	ca, cb := h.entries[a].count, h.entries[b].count
	return ca < cb || ca == cb && a < b
}

// swap exchanges heap places i and j.
func (h *hotSketch) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.entries[h.heap[i]].at, h.entries[h.heap[j]].at = i, j
}

// up sifts heap place i toward the root.
func (h *hotSketch) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

// down sifts heap place i toward the leaves.
func (h *hotSketch) down(i int) {
	for {
		least := 2*i + 1
		if least >= len(h.heap) {
			return
		}
		if r := least + 1; r < len(h.heap) && h.less(r, least) {
			least = r
		}
		if !h.less(least, i) {
			return
		}
		h.swap(i, least)
		i = least
	}
}

// Age halves every count and drops zeroed entries, so the sketch tracks
// recent traffic rather than all-time totals, and rebuilds the heap over the
// entries it keeps. Called after each hot-set distillation.
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
	h.idx.Clear()
	h.heap = h.heap[:0]
	for i, e := range h.entries {
		h.idx.Put(e.key, i)
		h.heap = append(h.heap, i)
		h.entries[i].at = i
	}
	for i := len(h.heap)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	h.total /= 2
}

// Hot distills the roster into the published hot set: digests of keys whose
// count clears both the share and absolute floors, hottest first, capped at
// hotPublishMax, then digest-sorted for a canonical wire representation. The
// set is the sketch's scratch, valid until the next call.
func (h *hotSketch) Hot() []uint64 {
	floor := int64(hotMinShare * float64(h.total))
	if floor < hotMinCount {
		floor = hotMinCount
	}
	cand := h.cand[:0]
	for _, e := range h.entries {
		if e.count-e.err >= floor {
			cand = append(cand, e)
		}
	}
	slices.SortFunc(cand, func(a, b hotEntry) int {
		if a.count != b.count {
			return cmp.Compare(b.count, a.count)
		}
		return strings.Compare(a.key.Str, b.key.Str)
	})
	if len(cand) > hotPublishMax {
		cand = cand[:hotPublishMax]
	}
	hot := h.hot[:0]
	for _, e := range cand {
		hot = append(hot, protocol.KeyDigest(e.key.Hash))
	}
	slices.Sort(hot)
	h.cand, h.hot = cand, hot
	return hot
}

// refreshHotSet distills the sketch into the store's published hot set and
// bumps the version only when membership changed, then ages the sketch once
// it has absorbed a full window of touches. The crawler calls this once per
// pass; clients learn the new set on their next directory query. A new set is
// a copy: a published one is never written again.
func (s *Store) refreshHotSet() {
	if hot := s.hot.Hot(); !slices.Equal(hot, s.hotSet) {
		s.hotSet = slices.Clone(hot)
		s.hotVersion++
	}
	if s.hot.total >= hotAgeWindow {
		s.hot.Age()
	}
}

// NoteHeat counts one read of key that the store never served — a GET a
// client resolved one-sided, reported on its hot-set refresh — in the heat
// sketch, as Get counts the reads it serves.
func (s *Store) NoteHeat(k protocol.Key) { s.hot.Touch(k) }

// Heat returns key's count in the heat sketch: 0 when it is no candidate.
func (s *Store) Heat(key string) int64 {
	if i, ok := s.hot.idx.Get(protocol.KeyOf(key)); ok {
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
