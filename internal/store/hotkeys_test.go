package store

import (
	"fmt"
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
