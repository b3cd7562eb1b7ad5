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
}

func (m *dirModel) PublishBegin(key string) {
	m.d.PublishBegin(key)
	m.open[key] = true
	m.check("PublishBegin " + key)
}

func (m *dirModel) Publish(it *hybridslab.Item) {
	m.d.Publish(it)
	delete(m.open, it.Key)
	m.check("Publish " + it.Key)
}

func (m *dirModel) Unpublish(key string) {
	m.d.Unpublish(key)
	delete(m.open, key)
	m.check("Unpublish " + key)
}

func (m *dirModel) EvictionUpdate(it *hybridslab.Item, ev hybridslab.NotifyEvent) {
	m.d.EvictionUpdate(it, ev)
	if m.s.table[it.Key] == it { // else: a superseded incarnation, not the key's window
		if ev == hybridslab.EvictStaged {
			m.open[it.Key] = true
			m.staged++
		} else {
			delete(m.open, it.Key)
		}
	}
	m.check(fmt.Sprintf("EvictionUpdate %s %d", it.Key, ev))
}

// check READs every slot and every offset ever published.
func (m *dirModel) check(step string) {
	t, d := m.t, m.d
	m.checks++
	for b := 0; b < d.buckets; b++ {
		slot := d.readSlot(t, b)
		if slot.Digest == 0 {
			if slot != (protocol.DirSlot{}) {
				t.Fatalf("after %s: empty bucket %d carries state: %+v", step, b, slot)
			}
			continue // the miss verdict: always safe
		}
		key, known := m.key[slot.Digest]
		if !known || d.bucket(key) != b {
			t.Fatalf("after %s: bucket %d holds digest %x (key %q) that does not hash there", step, b, slot.Digest, key)
		}
		if m.open[key] {
			if slot.Version%2 != 1 {
				t.Fatalf("after %s: %q is inside a mutation window but its slot reads even: %+v", step, key, slot)
			}
			m.odd++
			continue // a client re-probes or falls back
		}
		if slot.Version%2 != 0 {
			t.Fatalf("after %s: %q has no window open but its slot reads odd: %+v", step, key, slot)
		}
		it := m.s.table[key]
		if it == nil {
			t.Fatalf("after %s: slot serves %q, which the store no longer holds: %+v", step, key, slot)
		}
		switch slot.Kind {
		case protocol.DirInline:
			m.inline++
			if slot.Value != it.Value || slot.CAS != it.CAS || slot.ValueSize != it.ValueSize ||
				slot.Flags != it.Flags || slot.ExpireAt != int64(it.ExpireAt) ||
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
	// A client holding any offset a slot ever named reads that exact
	// snapshot — and then it is still the key's committed value — or
	// emptiness.
	for off, was := range m.seen {
		seg, live := d.segmentAt(t, off)
		if !live {
			continue
		}
		key := m.key[was.Digest]
		it := m.s.table[key]
		if seg != was || it == nil || it.Value != seg.Value || it.CAS != seg.CAS {
			t.Fatalf("after %s: cached offset %d reads %+v (published as %+v) but %q is now %+v", step, off, seg, was, key, it)
		}
	}
}

// TestDirectoryModel drives a hybrid store that overcommits its RAM with
// seeded random Sets (sizes on both sides of DirInlineMax), Deletes, Gets,
// failed flushes (staged, then restored) and crash-style Quiesce/PublishAll
// rounds, over a 16-bucket directory so that keys collide constantly. After
// every publication step every slot READ and every cached-offset READ must
// decode to the committed value or to a fallback verdict.
func TestDirectoryModel(t *testing.T) {
	sizes := []int{40, protocol.DirInlineMax, protocol.DirInlineMax + 1, 8 << 10, 32 << 10, 96 << 10}
	for _, seed := range []int64{1, 2, 3} {
		env := sim.NewEnv()
		s := newStore(env, 2<<20, true)
		m := &dirModel{
			t: t, s: s, d: newTestDirectory(16),
			key: map[uint64]string{}, open: map[string]bool{}, seen: map[int64]protocol.DirSegment{},
		}
		s.SetReadView(m)
		keys := make([]string, 48)
		for i := range keys {
			keys[i] = fmt.Sprintf("key:%02d", i)
			m.key[protocol.KeyDigest(keys[i])] = keys[i]
		}
		rng := rand.New(rand.NewSource(seed))
		want := map[string]any{} // reference map: last value each completed Set wrote
		sets := 0
		for round := 0; round < 12; round++ {
			env.Spawn("driver", func(p *sim.Proc) {
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
						if s.Delete(p, key) == protocol.StatusDeleted {
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
						if it := s.table[key]; it != nil && !it.OnSSD() && !it.Dropped() && !m.open[key] {
							m.EvictionUpdate(it, hybridslab.EvictStaged)
							m.EvictionUpdate(it, hybridslab.EvictRestored)
						}
					}
					m.check("op")
				}
			})
			env.Run() // drains the flushes the round started
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
		if m.inline == 0 || m.atOffset == 0 || m.onSSD == 0 || m.odd == 0 || m.staged == 0 || m.d.Displacements == 0 {
			t.Fatalf("seed %d: the run never exercised a verdict: inline=%d at-offset=%d ssd=%d odd=%d staged=%d displaced=%d",
				seed, m.inline, m.atOffset, m.onSSD, m.odd, m.staged, m.d.Displacements)
		}
		t.Logf("seed %d: %d checks; slots seen inline=%d at-offset=%d ssd=%d odd=%d; evictions staged=%d, displacements=%d",
			seed, m.checks, m.inline, m.atOffset, m.onSSD, m.odd, m.staged, m.d.Displacements)
	}
}
