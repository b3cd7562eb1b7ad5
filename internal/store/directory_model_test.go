package store

import (
	"fmt"
	"math/rand"
	"testing"

	"hybridkv/internal/hybridslab"
	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
)

// dirModel sits between a real hybrid store and its Directory as the
// store's ReadView. It forwards every call and then checks, at that very
// instant, what a client READing any slot — or any value offset a slot has
// ever named — would get, against the store's own table. It also tracks the
// mutation windows the store and the slab manager have open, so that "odd
// inside every window, even outside" is checked from the caller's side and
// not from the directory's bookkeeping.
type dirModel struct {
	t   *testing.T
	s   *Store
	d   *Directory
	key map[uint64]string // digest → key, for every key the run uses
	// open marks keys inside a mutation window: PublishBegin or EvictStaged
	// seen for the current item, no commit yet.
	open map[string]bool
	// seen is every value segment a slot has named: offsets are never
	// reused, so each must read as exactly this snapshot or as emptiness
	// for the rest of the run.
	seen map[int64]protocol.DirSegment

	checks                               int
	inline, atOffset, onSSD, odd, staged int
	full                                 int // buckets seen with every way owned
	spilled                              int // ways seen held by a key homed elsewhere
	spillDisplaced, spillRemoved         int // spilled keys displaced, and unpublished
}

func (m *dirModel) PublishBegin(k protocol.Key) {
	key := k.Str
	m.d.PublishBegin(k)
	m.open[key] = true
	m.check("PublishBegin " + key)
}

func (m *dirModel) Publish(it *hybridslab.Item) {
	m.forward(it.Key, func() { m.d.Publish(it) })
	delete(m.open, it.Key)
	m.check("Publish " + it.Key)
}

func (m *dirModel) Unpublish(k protocol.Key) {
	key := k.Str
	m.forward(key, func() { m.d.Unpublish(k) })
	delete(m.open, key)
	m.check("Unpublish " + key)
}

func (m *dirModel) EvictionUpdate(it *hybridslab.Item, ev hybridslab.NotifyEvent) {
	m.forward(it.Key, func() { m.d.EvictionUpdate(it, ev) })
	if m.s.item(protocol.KeyOf(it.Key)) == it { // else: a superseded incarnation, not the key's window
		if ev == hybridslab.EvictStaged {
			m.open[it.Key] = true
			m.staged++
		} else {
			delete(m.open, it.Key)
		}
	}
	m.check(fmt.Sprintf("EvictionUpdate %s %d", it.Key, ev))
}

// forward makes one directory call about key and counts what it did to the
// keys that lived in their alternate bucket before it: one that owns no way
// after it was removed (key itself) or displaced (another key).
func (m *dirModel) forward(key string, call func()) {
	var spilled []string
	for w, e := range m.d.entries {
		if e != nil && m.d.home(e.slot.Digest) != w/protocol.DirWays {
			spilled = append(spilled, e.it.Key)
		}
	}
	call()
	for _, k := range spilled {
		switch _, w := m.d.find(k, protocol.KeyDigest(protocol.FNV1a(k))); {
		case w >= 0:
		case k == key:
			m.spillRemoved++
		default:
			m.spillDisplaced++
		}
	}
}

// check READs every way of every bucket and every offset ever published.
func (m *dirModel) check(step string) {
	t, d := m.t, m.d
	m.checks++
	spilled := make([]int, d.buckets) // keys living in each bucket's alternates, as READ
	for b := 0; b < d.buckets; b++ {
		bucket := d.bucketAt(t, b)
		owned := 0
		for w, slot := range bucket.Ways {
			m.checkSlot(step, b, w, bucket)
			if slot.Digest == 0 {
				continue
			}
			owned++
			if home := d.home(slot.Digest); home != b {
				spilled[home]++
				m.spilled++
				// A spilled key is found where it lives, by the directory and
				// by a client's two READs alike.
				key := m.key[slot.Digest]
				if at, w := d.find(key, protocol.KeyDigest(protocol.FNV1a(key))); at != b || w < 0 {
					t.Fatalf("after %s: %q lives in bucket %d, but find says bucket %d way %d", step, key, b, at, w)
				}
				if s, ok := d.slotFor(t, key); !ok || s != slot {
					t.Fatalf("after %s: a client looking up spilled %q finds %+v (%v), not %+v", step, key, s, ok, slot)
				}
			}
		}
		if owned == protocol.DirWays {
			m.full++
		}
	}
	// Every header counts exactly the keys homed there that live in their
	// alternate — through spills, displacements, removals and Quiesce.
	for b, n := range spilled {
		if got := d.bucketAt(t, b).Spill; int(got) != n {
			t.Fatalf("after %s: bucket %d publishes spill count %d, %d of its keys live in their alternate", step, b, got, n)
		}
	}
	// A client holding any offset a slot ever named reads that exact
	// snapshot — and then it is still the key's committed value — or
	// emptiness.
	for off, was := range m.seen {
		seg, live := d.segmentAt(t, off)
		if !live {
			continue
		}
		key := m.key[was.Digest]
		it := m.s.item(protocol.KeyOf(key))
		if seg != was || it == nil || it.Value != seg.Value || it.CAS != seg.CAS {
			t.Fatalf("after %s: cached offset %d reads %+v (published as %+v) but %q is now %+v", step, off, seg, was, key, it)
		}
	}
}

// checkSlot checks way w of bucket b as a client's READ of the bucket
// decodes it.
func (m *dirModel) checkSlot(step string, b, w int, bucket protocol.DirBucket) {
	t, d := m.t, m.d
	slot := bucket.Ways[w]
	if slot.Digest == 0 {
		if slot != (protocol.DirSlot{}) {
			t.Fatalf("after %s: empty way %d of bucket %d carries state: %+v", step, w, b, slot)
		}
		return // the miss verdict: always safe
	}
	key, known := m.key[slot.Digest]
	if home := d.home(slot.Digest); !known || home != b && protocol.AltBucket(home, slot.Digest, d.buckets) != b {
		t.Fatalf("after %s: bucket %d holds digest %x (key %q), which is neither homed nor spilled there", step, b, slot.Digest, key)
	}
	for v := range w {
		if bucket.Ways[v].Digest == slot.Digest {
			t.Fatalf("after %s: %q holds ways %d and %d of bucket %d: %+v", step, key, v, w, b, bucket)
		}
	}
	if m.open[key] {
		if slot.Version%2 != 1 {
			t.Fatalf("after %s: %q is inside a mutation window but its slot reads even: %+v", step, key, slot)
		}
		m.odd++
		return // a client re-probes or falls back
	}
	if slot.Version%2 != 0 {
		t.Fatalf("after %s: %q has no window open but its slot reads odd: %+v", step, key, slot)
	}
	it := m.s.item(protocol.KeyOf(key))
	if it == nil {
		t.Fatalf("after %s: slot serves %q, which the store no longer holds: %+v", step, key, slot)
	}
	switch slot.Kind {
	case protocol.DirInline:
		m.inline++
		if slot.Value != it.Value || slot.CAS != it.CAS || slot.ValueSize != it.ValueSize ||
			slot.Flags != it.Flags ||
			it.ValueSize > protocol.DirInlineMax || it.OnSSD() || it.Dropped() {
			t.Fatalf("after %s: inline slot %+v does not match the committed item %+v", step, slot, it)
		}
	case protocol.DirAtOffset:
		m.atOffset++
		seg, ok := d.segmentAt(t, slot.Off)
		if !ok || seg.Digest != slot.Digest || seg.Version != slot.Version || slot.Len != seg.WireSize() ||
			seg.Value != it.Value || seg.CAS != it.CAS || seg.ValueSize != it.ValueSize ||
			it.ValueSize <= protocol.DirInlineMax || it.OnSSD() || it.Dropped() || slot.Value != nil {
			t.Fatalf("after %s: slot %+v names segment %+v (live=%v), committed item %+v", step, slot, seg, ok, it)
		}
		if old, dup := m.seen[slot.Off]; dup && old != seg {
			t.Fatalf("after %s: offset %d reused: was %+v, now %+v", step, slot.Off, old, seg)
		}
		m.seen[slot.Off] = seg
	case protocol.DirOnSSD:
		m.onSSD++ // the RPC verdict: always safe
		if slot.Value != nil {
			t.Fatalf("after %s: SSD-resident slot carries inline bytes: %+v", step, slot)
		}
	default:
		t.Fatalf("after %s: owned slot with kind %d: %+v", step, slot.Kind, slot)
	}
}

// TestDirectoryModel drives a hybrid store that overcommits its RAM with
// seeded random Sets (sizes on both sides of DirInlineMax), Deletes, Gets,
// failed flushes (staged, then restored) and crash-style Quiesce/PublishAll
// rounds, over an 8-bucket directory (16 ways for 48 keys) so that buckets
// fill, spill and overflow constantly. After every publication step every
// way of every bucket READ and every cached-offset READ must decode to the
// committed value or to a fallback verdict, every key must live in its home
// or its alternate, and every bucket's published spill count must be the
// number of its keys living in their alternates.
func TestDirectoryModel(t *testing.T) {
	sizes := []int{40, protocol.DirInlineMax, protocol.DirInlineMax + 1, 8 << 10, 32 << 10, 96 << 10}
	spillDisplaced, spillRemoved := 0, 0
	for _, seed := range []int64{1, 2, 3} {
		env := sim.NewEnv()
		s := newStore(env, 2<<20, true)
		m := &dirModel{
			t: t, s: s, d: newTestDirectory(8),
			key: map[uint64]string{}, open: map[string]bool{}, seen: map[int64]protocol.DirSegment{},
		}
		s.SetReadView(m)
		keys := make([]string, 48)
		for i := range keys {
			keys[i] = fmt.Sprintf("key:%02d", i)
			m.key[protocol.KeyDigest(protocol.FNV1a(keys[i]))] = keys[i]
		}
		rng := rand.New(rand.NewSource(seed))
		want := map[string]any{} // reference map: last value each completed Set wrote
		sets := 0
		for round := 0; round < 12; round++ {
			sim.Drive(t, env, "driver", func(p *sim.Proc) {
				for op := 0; op < 60; op++ {
					key := keys[rng.Intn(len(keys))]
					switch r := rng.Intn(10); {
					case r < 6:
						sets++
						val := fmt.Sprintf("%s#%d", key, sets)
						if st := s.Set(p, key, sizes[rng.Intn(len(sizes))], val, uint32(sets), 0); st == protocol.StatusStored {
							want[key] = val
						}
					case r < 7:
						if s.DeleteIf(p, protocol.KeyOf(key), nil) == protocol.StatusDeleted {
							delete(want, key)
						}
					case r < 9:
						if v, _, _, _, st := s.Get(p, key); st == protocol.StatusOK && v != want[key] {
							t.Errorf("seed %d: store GET %q = %v, reference %v", seed, key, v, want[key])
						} else if st == protocol.StatusNotFound {
							delete(want, key) // dropped by eviction
						}
					default:
						// A flush that fails: staged, then restored.
						if it := s.item(protocol.KeyOf(key)); it != nil && !it.OnSSD() && !it.Dropped() && !m.open[key] {
							m.EvictionUpdate(it, hybridslab.EvictStaged)
							m.EvictionUpdate(it, hybridslab.EvictRestored)
						}
					}
					m.check("op")
				}
			}) // drains the flushes the round started
			if len(m.open) != 0 {
				t.Fatalf("seed %d: windows still open at idle: %v", seed, m.open)
			}
			// The reference map agrees with what the directory serves by value.
			for key, val := range want {
				if slot, own := m.d.slotFor(t, key); own && slot.Kind == protocol.DirInline && slot.Value != val {
					t.Fatalf("seed %d: %q serves %v inline, reference %v", seed, key, slot.Value, val)
				}
			}
			if round%3 == 2 {
				m.d.Quiesce() // crash: every READ sees emptiness, versions survive
				m.check("Quiesce")
				for off := range m.seen {
					if _, live := m.d.segmentAt(t, off); live {
						t.Fatalf("seed %d: offset %d readable after Quiesce", seed, off)
					}
				}
				s.PublishAll() // restart
			}
		}
		if m.inline == 0 || m.atOffset == 0 || m.onSSD == 0 || m.odd == 0 || m.staged == 0 || m.full == 0 || m.spilled == 0 || m.d.Displacements == 0 {
			t.Fatalf("seed %d: the run never exercised a verdict: inline=%d at-offset=%d ssd=%d odd=%d staged=%d full=%d spilled=%d displaced=%d",
				seed, m.inline, m.atOffset, m.onSSD, m.odd, m.staged, m.full, m.spilled, m.d.Displacements)
		}
		spillDisplaced += m.spillDisplaced
		spillRemoved += m.spillRemoved
		t.Logf("seed %d: %d checks; slots seen inline=%d at-offset=%d ssd=%d odd=%d spilled=%d; spilled keys displaced %d, removed %d; evictions staged=%d; full buckets %d, displacements=%d",
			seed, m.checks, m.inline, m.atOffset, m.onSSD, m.odd, m.spilled, m.spillDisplaced, m.spillRemoved, m.staged, m.full, m.d.Displacements)
	}
	// Rarer, so counted over the three seeds: the spill counts were checked
	// exact after a spilled key was displaced and after one was removed.
	if spillDisplaced == 0 || spillRemoved == 0 {
		t.Fatalf("no run displaced (%d) or removed (%d) a spilled key", spillDisplaced, spillRemoved)
	}
}
