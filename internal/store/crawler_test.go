package store

import (
	"fmt"
	"testing"

	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
)

func TestCrawlerLeavesFreshItemsAlone(t *testing.T) {
	env := sim.NewEnv()
	s := newStore(env, 16<<20, false)
	s.StartCrawler(100*sim.Millisecond, 1000)
	sim.DriveUntil(t, env, -1, sim.Driver{Name: "load", Fn: func(p *sim.Proc) {
		for i := 0; i < 30; i++ {
			s.Set(p, fmt.Sprintf("k%02d", i), 1024, i, 0, 0)
		}
	}}, sim.Driver{Name: "stopper", Fn: func(p *sim.Proc) {
		p.Sleep(2 * sim.Second)
		s.StopCrawler()
	}})
	if s.Len() != 30 || s.Manager().RAMItems() != 30 {
		t.Errorf("keys %d, RAM items %d, want 30 each", s.Len(), s.Manager().RAMItems())
	}
}

func TestCrawlerStopTerminatesRun(t *testing.T) {
	env := sim.NewEnv()
	s := newStore(env, 16<<20, false)
	s.StartCrawler(sim.Second, 10)
	end := sim.Drive(t, env, "stopper", func(p *sim.Proc) {
		p.Sleep(2500 * sim.Millisecond)
		s.StopCrawler()
	}) // must terminate: no periodic wakeups after stop
	if end < 2500*sim.Millisecond || end > 4*sim.Second {
		t.Errorf("run ended at %v, want shortly after the stop", end)
	}
	// Restarting after stop is allowed.
	s.StartCrawler(sim.Second, 10)
	s.StopCrawler()
	env.Run() // no driver: the crawler is the only process, and the run ending is the check
}

func TestDoubleStartCrawlerErrors(t *testing.T) {
	env := sim.NewEnv()
	s := newStore(env, 16<<20, false)
	if err := s.StartCrawler(sim.Second, 10); err != nil {
		t.Fatalf("first StartCrawler: %v", err)
	}
	if err := s.StartCrawler(sim.Second, 10); err != ErrCrawlerRunning {
		t.Errorf("double StartCrawler returned %v, want ErrCrawlerRunning", err)
	}
	s.StopCrawler()
	// Stopping clears the condition: a restart succeeds again.
	if err := s.StartCrawler(sim.Second, 10); err != nil {
		t.Errorf("restart after stop: %v", err)
	}
	s.StopCrawler()
	env.Run() // no driver: the crawler is the only process, and the run ending is the check
}

func TestStatsSnapshot(t *testing.T) {
	env := sim.NewEnv()
	s := newStore(env, 4<<20, true)
	sim.Drive(t, env, "load", func(p *sim.Proc) {
		for i := 0; i < 200; i++ {
			s.Set(p, fmt.Sprintf("k%03d", i), 32*1024, i, 0, 0)
		}
		s.Get(p, "k000")
		s.Get(p, "nope")
		s.DeleteIf(p, protocol.KeyOf("k199"), nil)
	})
	if s.Len() != 199 || s.SetOps != 200 || s.GetOps != 2 ||
		s.GetHits != 1 || s.GetMisses != 1 || s.DeleteOps != 1 {
		t.Errorf("stats: %d items, %d sets, %d gets (%d hits, %d misses), %d deletes",
			s.Len(), s.SetOps, s.GetOps, s.GetHits, s.GetMisses, s.DeleteOps)
	}
	m := s.Manager()
	if m.RAMItems()+m.SSDItems() != s.Len() {
		t.Errorf("placement mismatch: %d + %d != %d", m.RAMItems(), m.SSDItems(), s.Len())
	}
	if m.FlushPages == 0 || m.SSDUsed() == 0 || m.Allocator().MemUsed() == 0 {
		t.Errorf("hybrid stats empty: %d pages flushed, %d SSD bytes, %d slab bytes", m.FlushPages, m.SSDUsed(), m.Allocator().MemUsed())
	}
}
