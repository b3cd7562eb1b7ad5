package store

import (
	"fmt"
	"testing"

	"hybridkv/internal/blockdev"
	"hybridkv/internal/hybridslab"
	"hybridkv/internal/metrics"
	"hybridkv/internal/pagecache"
	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
	"hybridkv/internal/slab"
)

func newStore(env *sim.Env, memLimit int64, hybrid bool) *Store {
	return newStoreWithPolicy(env, memLimit, hybrid, hybridslab.PolicyAdaptive)
}

func newStoreWithPolicy(env *sim.Env, memLimit int64, hybrid bool, policy hybridslab.IOPolicy) *Store {
	cfg := hybridslab.Config{
		Slab:   slab.Config{MemLimit: memLimit},
		Policy: policy,
	}
	var file *pagecache.File
	if hybrid {
		dev := blockdev.New(env, blockdev.SATA(), 8<<30)
		file = pagecache.New(env, dev, pagecache.DefaultParams()).OpenFile(0, 4<<30)
	}
	return New(env, hybridslab.New(env, cfg, file))
}

func TestSetGetDelete(t *testing.T) {
	env := sim.NewEnv()
	s := newStore(env, 16<<20, false)
	sim.Drive(t, env, "op", func(p *sim.Proc) {
		if st := s.Set(p, "k1", 1024, "v1", 5, 0); st != protocol.StatusStored {
			t.Errorf("set status %v", st)
		}
		v, size, flags, cas, st := s.Get(p, "k1")
		if st != protocol.StatusOK || v != "v1" || size != 1024 || flags != 5 || cas == 0 {
			t.Errorf("get (%v,%d,%d,%d,%v)", v, size, flags, cas, st)
		}
		if st := s.Delete(p, "k1"); st != protocol.StatusDeleted {
			t.Errorf("delete status %v", st)
		}
		if _, _, _, _, st := s.Get(p, "k1"); st != protocol.StatusNotFound {
			t.Errorf("get after delete %v", st)
		}
		if st := s.Delete(p, "k1"); st != protocol.StatusNotFound {
			t.Errorf("double delete %v", st)
		}
	})
	if s.SetOps != 1 || s.GetOps != 2 || s.DeleteOps != 2 || s.GetHits != 1 || s.GetMisses != 1 {
		t.Errorf("counters set=%d get=%d del=%d hit=%d miss=%d",
			s.SetOps, s.GetOps, s.DeleteOps, s.GetHits, s.GetMisses)
	}
}

func TestReplaceUpdatesValueAndCAS(t *testing.T) {
	env := sim.NewEnv()
	s := newStore(env, 16<<20, false)
	sim.Drive(t, env, "op", func(p *sim.Proc) {
		s.Set(p, "k", 100, "old", 0, 0)
		_, _, _, cas1, _ := s.Get(p, "k")
		s.Set(p, "k", 200, "new", 0, 0)
		v, size, _, cas2, _ := s.Get(p, "k")
		if v != "new" || size != 200 {
			t.Errorf("replace not visible: %v/%d", v, size)
		}
		if cas2 <= cas1 {
			t.Errorf("CAS did not advance: %d -> %d", cas1, cas2)
		}
	})
	if s.Len() != 1 {
		t.Errorf("table length %d after replace", s.Len())
	}
	if got := s.Manager().RAMItems(); got != 1 {
		t.Errorf("old item leaked in slab: %d RAM items", got)
	}
}

// The store keeps no expiry: a TTL handed to Set panics before anything is
// stored, rather than being stored as "never".
func TestSetPanicsOnATTL(t *testing.T) {
	s := newStore(sim.NewEnv(), 16<<20, false)
	defer func() {
		if recover() == nil {
			t.Error("Set with a 1 s TTL did not panic")
		}
		if s.Len() != 0 || s.SetOps != 0 {
			t.Errorf("a refused Set left %d keys, %d set ops", s.Len(), s.SetOps)
		}
	}()
	s.Set(nil, "k", 100, "v", 0, 1)
}

func TestTooLarge(t *testing.T) {
	env := sim.NewEnv()
	s := newStore(env, 16<<20, false)
	sim.Drive(t, env, "op", func(p *sim.Proc) {
		if st := s.Set(p, "big", 2<<20, nil, 0, 0); st != protocol.StatusTooLarge {
			t.Errorf("oversized set status %v", st)
		}
	})
}

func TestEvictedKeyIsMissRAMOnly(t *testing.T) {
	env := sim.NewEnv()
	s := newStore(env, 4<<20, false)
	sim.Drive(t, env, "op", func(p *sim.Proc) {
		for i := 0; i < 300; i++ {
			s.Set(p, fmt.Sprintf("k%04d", i), 32*1024, i, 0, 0)
		}
		if _, _, _, _, st := s.Get(p, "k0000"); st != protocol.StatusNotFound {
			t.Errorf("evicted key served: %v", st)
		}
		if _, _, _, _, st := s.Get(p, "k0299"); st != protocol.StatusOK {
			t.Errorf("hot key missing: %v", st)
		}
	})
}

func TestHybridRetainsEverything(t *testing.T) {
	env := sim.NewEnv()
	s := newStore(env, 4<<20, true)
	miss := 0
	sim.Drive(t, env, "op", func(p *sim.Proc) {
		for i := 0; i < 300; i++ {
			s.Set(p, fmt.Sprintf("k%04d", i), 32*1024, i, 0, 0)
		}
		for i := 0; i < 300; i++ {
			if _, _, _, _, st := s.Get(p, fmt.Sprintf("k%04d", i)); st != protocol.StatusOK {
				miss++
			}
		}
	})
	if miss != 0 {
		t.Errorf("%d misses in hybrid store", miss)
	}
}

func TestStageProfileAccumulates(t *testing.T) {
	env := sim.NewEnv()
	s := newStoreWithPolicy(env, 4<<20, true, hybridslab.PolicyDirect)
	sim.Drive(t, env, "op", func(p *sim.Proc) {
		for i := 0; i < 300; i++ {
			s.Set(p, fmt.Sprintf("k%04d", i), 32*1024, i, 0, 0)
		}
		s.Get(p, "k0000") // SSD load (direct I/O bypasses the page cache)
	})
	if s.Prof.Total(metrics.StageSlabAlloc) == 0 {
		t.Errorf("slab-allocation stage empty")
	}
	if s.Prof.Total(metrics.StageCacheUpdate) == 0 {
		t.Errorf("cache-update stage empty")
	}
	if s.Prof.Total(metrics.StageCacheLoad) < blockdev.SATA().ReadTime(32*1024) {
		t.Errorf("cache-check-and-load %v does not reflect the SSD read",
			s.Prof.Total(metrics.StageCacheLoad))
	}
	// With heavy eviction, slab allocation must dominate cache update.
	if s.Prof.Total(metrics.StageSlabAlloc) < 10*s.Prof.Total(metrics.StageCacheUpdate) {
		t.Errorf("slab-alloc %v not dominating under eviction (update %v)",
			s.Prof.Total(metrics.StageSlabAlloc), s.Prof.Total(metrics.StageCacheUpdate))
	}
}

func TestHandleDispatch(t *testing.T) {
	env := sim.NewEnv()
	s := newStore(env, 16<<20, false)
	sim.Drive(t, env, "op", func(p *sim.Proc) {
		set := s.Handle(p, &protocol.Request{Op: protocol.OpSet, ReqID: 1, Key: "a", ValueSize: 128, Value: "v"})
		if set.Status != protocol.StatusStored || set.ReqID != 1 {
			t.Errorf("set resp %+v", set)
		}
		get := s.Handle(p, &protocol.Request{Op: protocol.OpGet, ReqID: 2, Key: "a"})
		if get.Status != protocol.StatusOK || get.Value != "v" || get.ValueSize != 128 {
			t.Errorf("get resp %+v", get)
		}
		bad := s.Handle(p, &protocol.Request{Op: protocol.Opcode(77), ReqID: 4})
		if bad.Status != protocol.StatusError {
			t.Errorf("bad-op resp %+v", bad)
		}
	})
}
