package store

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
)

func TestHotSketchFindsHeavyHitter(t *testing.T) {
	h := newHotSketch(8)
	// 200 distinct cold keys churn the roster while one celebrity key
	// receives 30% of the traffic.
	for i := 0; i < 1000; i++ {
		if i%3 == 0 {
			h.Touch(protocol.KeyOf("celebrity"))
		}
		h.Touch(protocol.KeyOf(fmt.Sprintf("cold%03d", i%200)))
	}
	hot := h.Hot()
	want := protocol.KeyDigest(protocol.FNV1a("celebrity"))
	found := false
	for _, d := range hot {
		if d == want {
			found = true
		}
	}
	if !found {
		t.Fatalf("celebrity digest missing from hot set %v", hot)
	}
	if len(hot) > hotPublishMax {
		t.Errorf("hot set size %d exceeds cap %d", len(hot), hotPublishMax)
	}
}

func TestHotSketchUniformTrafficStaysCold(t *testing.T) {
	h := newHotSketch(8)
	for i := 0; i < 2000; i++ {
		h.Touch(protocol.KeyOf(fmt.Sprintf("k%04d", i%500)))
	}
	if hot := h.Hot(); len(hot) != 0 {
		t.Errorf("uniform traffic published %d hot keys, want none", len(hot))
	}
}

func TestHotSketchAgingCoolsOff(t *testing.T) {
	h := newHotSketch(8)
	for i := 0; i < 500; i++ {
		h.Touch(protocol.KeyOf("fading-star"))
	}
	if len(h.Hot()) == 0 {
		t.Fatal("heavy hitter not detected before aging")
	}
	// A handful of Age rounds with no reinforcing traffic must drop the
	// key below both publication floors.
	for r := 0; r < 10; r++ {
		h.Age()
	}
	if hot := h.Hot(); len(hot) != 0 {
		t.Errorf("hot set %v survived 10 aging rounds without traffic", hot)
	}
}

func TestCrawlerPublishesHotSet(t *testing.T) {
	env := sim.NewEnv()
	s := newStore(env, 16<<20, false)
	if err := s.StartCrawler(100*sim.Millisecond, 1000); err != nil {
		t.Fatalf("StartCrawler: %v", err)
	}
	sim.DriveUntil(t, env, -1, sim.Driver{Name: "load", Fn: func(p *sim.Proc) {
		for i := 0; i < 64; i++ {
			s.Set(p, fmt.Sprintf("k%02d", i), 1024, i, 0, 0)
		}
		// Celebrity read pattern: half the GETs hit one key.
		for i := 0; i < 400; i++ {
			s.Get(p, "k00")
			s.Get(p, fmt.Sprintf("k%02d", i%64))
		}
	}}, sim.Driver{Name: "stopper", Fn: func(p *sim.Proc) {
		p.Sleep(500 * sim.Millisecond)
		s.StopCrawler()
	}})
	hot, version := s.HotSnapshot()
	if version == 0 {
		t.Fatal("hot-set version never advanced")
	}
	want := protocol.KeyDigest(protocol.FNV1a("k00"))
	found := false
	for _, d := range hot {
		if d == want {
			found = true
		}
	}
	if !found {
		t.Errorf("hot snapshot %v missing the celebrity digest %d", hot, want)
	}
}

// scanSketch is the roster as a linear scan keeps it: a replacement takes
// the first entry of the lowest count. TestHotSketchHeapMatchesTheScan holds
// hotSketch's heap to it.
type scanSketch struct {
	cap     int
	idx     map[protocol.Key]int
	entries []hotEntry
	total   int64
}

func (s *scanSketch) touch(k protocol.Key) {
	s.total++
	if i, ok := s.idx[k]; ok {
		s.entries[i].count++
		return
	}
	if len(s.entries) < s.cap {
		s.idx[k] = len(s.entries)
		s.entries = append(s.entries, hotEntry{key: k, count: 1})
		return
	}
	min := 0
	for i := 1; i < len(s.entries); i++ {
		if s.entries[i].count < s.entries[min].count {
			min = i
		}
	}
	delete(s.idx, s.entries[min].key)
	s.idx[k] = min
	s.entries[min] = hotEntry{key: k, count: s.entries[min].count + 1, err: s.entries[min].count}
}

func (s *scanSketch) age() {
	kept := s.entries[:0]
	for _, e := range s.entries {
		e.count /= 2
		e.err /= 2
		if e.count > 0 {
			kept = append(kept, e)
		}
	}
	s.entries = kept
	clear(s.idx)
	for i, e := range s.entries {
		s.idx[e.key] = i
	}
	s.total /= 2
}

// TestHotSketchHeapMatchesTheScan drives random touches over a skewed key
// set, with an Age now and then, into a hotSketch and the linear-scan
// reference, and compares their entries and their Hot sets after every step.
func TestHotSketchHeapMatchesTheScan(t *testing.T) {
	for _, capacity := range []int{1, 8, 64} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			h := newHotSketch(capacity)
			ref := &scanSketch{cap: capacity, idx: map[protocol.Key]int{}}
			keys := make([]protocol.Key, 4*capacity)
			for i := range keys {
				keys[i] = protocol.KeyOf(fmt.Sprintf("k%03d", i))
			}
			for step := 0; step < 20000; step++ {
				if rng.Intn(500) == 0 {
					h.Age()
					ref.age()
				} else {
					// Squaring a uniform draw skews the keys toward the
					// first ones, so counts climb as well as churn.
					u := rng.Float64()
					k := keys[int(u*u*float64(len(keys)))]
					h.Touch(k)
					ref.touch(k)
				}
				if len(h.entries) != len(ref.entries) {
					t.Fatalf("cap %d seed %d step %d: %d entries, the scan has %d", capacity, seed, step, len(h.entries), len(ref.entries))
				}
				for i, e := range h.entries {
					if r := ref.entries[i]; e.key != r.key || e.count != r.count || e.err != r.err {
						t.Fatalf("cap %d seed %d step %d: entry %d is %+v, the scan's %+v", capacity, seed, step, i, e, r)
					}
				}
				want := (&hotSketch{entries: ref.entries, total: ref.total}).Hot()
				if got := h.Hot(); !slices.Equal(got, want) {
					t.Fatalf("cap %d seed %d step %d: Hot %v, the scan's %v", capacity, seed, step, got, want)
				}
			}
		}
	}
}
