package store

import (
	"fmt"
	"testing"

	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
)

func TestAddSemantics(t *testing.T) {
	env := sim.NewEnv()
	s := newStore(env, 16<<20, false)
	env.Spawn("op", func(p *sim.Proc) {
		if st := s.Add(p, "k", 100, "first", 0, 0); st != protocol.StatusStored {
			t.Errorf("add on fresh key: %v", st)
		}
		if st := s.Add(p, "k", 100, "second", 0, 0); st != protocol.StatusNotStored {
			t.Errorf("add on existing key: %v", st)
		}
		v, _, _, _, _ := s.Get(p, "k")
		if v != "first" {
			t.Errorf("add overwrote: %v", v)
		}
	})
	env.Run()
}

func TestAddSucceedsAfterExpiry(t *testing.T) {
	env := sim.NewEnv()
	s := newStore(env, 16<<20, false)
	env.Spawn("op", func(p *sim.Proc) {
		s.Set(p, "k", 100, "old", 0, 1)
		p.Sleep(2 * sim.Second)
		if st := s.Add(p, "k", 100, "new", 0, 0); st != protocol.StatusStored {
			t.Errorf("add on expired key: %v", st)
		}
	})
	env.Run()
}

func TestReplaceSemantics(t *testing.T) {
	env := sim.NewEnv()
	s := newStore(env, 16<<20, false)
	env.Spawn("op", func(p *sim.Proc) {
		if st := s.Replace(p, "k", 100, "x", 0, 0); st != protocol.StatusNotStored {
			t.Errorf("replace on missing key: %v", st)
		}
		s.Set(p, "k", 100, "old", 0, 0)
		if st := s.Replace(p, "k", 200, "new", 0, 0); st != protocol.StatusStored {
			t.Errorf("replace on existing key: %v", st)
		}
		v, size, _, _, _ := s.Get(p, "k")
		if v != "new" || size != 200 {
			t.Errorf("replace result (%v,%d)", v, size)
		}
	})
	env.Run()
}

func TestCompareAndSetSemantics(t *testing.T) {
	env := sim.NewEnv()
	s := newStore(env, 16<<20, false)
	env.Spawn("op", func(p *sim.Proc) {
		if st := s.CompareAndSet(p, "k", 10, "x", 0, 0, 1); st != protocol.StatusNotFound {
			t.Errorf("cas on missing key: %v", st)
		}
		s.Set(p, "k", 10, "v1", 0, 0)
		_, _, _, cas, _ := s.Get(p, "k")
		if st := s.CompareAndSet(p, "k", 10, "v2", 0, 0, cas); st != protocol.StatusStored {
			t.Errorf("cas with current token: %v", st)
		}
		// The old token is now stale.
		if st := s.CompareAndSet(p, "k", 10, "v3", 0, 0, cas); st != protocol.StatusExists {
			t.Errorf("cas with stale token: %v", st)
		}
		v, _, _, _, _ := s.Get(p, "k")
		if v != "v2" {
			t.Errorf("cas left value %v", v)
		}
	})
	env.Run()
}

func TestAppendPrependSemantics(t *testing.T) {
	env := sim.NewEnv()
	s := newStore(env, 16<<20, false)
	env.Spawn("op", func(p *sim.Proc) {
		if st := s.Append(p, "k", 10, "x"); st != protocol.StatusNotStored {
			t.Errorf("append on missing key: %v", st)
		}
		s.Set(p, "k", 100, "base", 0, 0)
		if st := s.Append(p, "k", 50, "tail"); st != protocol.StatusStored {
			t.Errorf("append: %v", st)
		}
		v, size, _, _, _ := s.Get(p, "k")
		cc, ok := v.(Concatenated)
		if !ok || cc.First != "base" || cc.Second != "tail" || size != 150 {
			t.Errorf("append result (%+v,%d)", v, size)
		}
		if st := s.Prepend(p, "k", 25, "head"); st != protocol.StatusStored {
			t.Errorf("prepend: %v", st)
		}
		v, size, _, _, _ = s.Get(p, "k")
		cc, ok = v.(Concatenated)
		if !ok || cc.First != "head" || size != 175 {
			t.Errorf("prepend result (%+v,%d)", v, size)
		}
	})
	env.Run()
}

func TestIncrDecrSemantics(t *testing.T) {
	env := sim.NewEnv()
	s := newStore(env, 16<<20, false)
	env.Spawn("op", func(p *sim.Proc) {
		if _, st := s.Incr(p, "c", 1); st != protocol.StatusNotFound {
			t.Errorf("incr on missing key: %v", st)
		}
		s.Set(p, "c", counterSize, uint64(10), 0, 0)
		if v, st := s.Incr(p, "c", 5); st != protocol.StatusOK || v != 15 {
			t.Errorf("incr -> (%d,%v)", v, st)
		}
		if v, st := s.Decr(p, "c", 3); st != protocol.StatusOK || v != 12 {
			t.Errorf("decr -> (%d,%v)", v, st)
		}
		// Decr floors at zero, as memcached specifies.
		if v, st := s.Decr(p, "c", 100); st != protocol.StatusOK || v != 0 {
			t.Errorf("decr floor -> (%d,%v)", v, st)
		}
		// Non-counter values are rejected.
		s.Set(p, "s", 10, "text", 0, 0)
		if _, st := s.Incr(p, "s", 1); st != protocol.StatusBadValue {
			t.Errorf("incr on text: %v", st)
		}
	})
	env.Run()
}

func TestIncrAdvancesCAS(t *testing.T) {
	env := sim.NewEnv()
	s := newStore(env, 16<<20, false)
	env.Spawn("op", func(p *sim.Proc) {
		s.Set(p, "c", counterSize, uint64(0), 0, 0)
		_, _, _, cas1, _ := s.Get(p, "c")
		s.Incr(p, "c", 1)
		_, _, _, cas2, _ := s.Get(p, "c")
		if cas2 <= cas1 {
			t.Errorf("incr did not advance CAS: %d -> %d", cas1, cas2)
		}
	})
	env.Run()
}

func TestIncrOnSSDResidentCounter(t *testing.T) {
	env := sim.NewEnv()
	s := newStore(env, 4<<20, true)
	env.Spawn("op", func(p *sim.Proc) {
		// Push the counter to the SSD with filler. Eviction takes its victims
		// from the class that is allocating, so the counter is stored at the
		// fillers' size (at counterSize it stayed in RAM, and this test with it).
		s.Set(p, "c", 32*1024, uint64(41), 0, 0)
		for i := 0; i < 200; i++ {
			s.Set(p, fmt.Sprintf("fill%04d", i), 32*1024, i, 0, 0)
		}
		if !s.table["c"].OnSSD() {
			t.Fatal("fixture: the counter is not on the SSD")
		}
		if v, st := s.Incr(p, "c", 1); st != protocol.StatusOK || v != 42 {
			t.Fatalf("incr on cold counter -> (%d,%v)", v, st)
		}
		// The stored value must be durable across further reads.
		v, _, _, _, st := s.Get(p, "c")
		if st != protocol.StatusOK || v != uint64(42) {
			t.Errorf("counter after SSD incr: (%v,%v)", v, st)
		}
	})
	env.Run()
}

func TestTouchSemantics(t *testing.T) {
	env := sim.NewEnv()
	s := newStore(env, 16<<20, false)
	env.Spawn("op", func(p *sim.Proc) {
		if st := s.Touch(p, "k", 10); st != protocol.StatusNotFound {
			t.Errorf("touch on missing key: %v", st)
		}
		s.Set(p, "k", 100, "v", 0, 1) // expires in 1s
		if st := s.Touch(p, "k", 60); st != protocol.StatusOK {
			t.Errorf("touch: %v", st)
		}
		p.Sleep(5 * sim.Second) // would have expired without the touch
		if _, _, _, _, st := s.Get(p, "k"); st != protocol.StatusOK {
			t.Errorf("touched key expired anyway: %v", st)
		}
		// Touch with 0 clears the expiry.
		if st := s.Touch(p, "k", 0); st != protocol.StatusOK {
			t.Errorf("touch clear: %v", st)
		}
		p.Sleep(120 * sim.Second)
		if _, _, _, _, st := s.Get(p, "k"); st != protocol.StatusOK {
			t.Errorf("unexpiring key expired: %v", st)
		}
	})
	env.Run()
}

func TestHandleExtendedOps(t *testing.T) {
	env := sim.NewEnv()
	s := newStore(env, 16<<20, false)
	env.Spawn("op", func(p *sim.Proc) {
		if r := s.Handle(p, &protocol.Request{Op: protocol.OpAdd, Key: "k", ValueSize: 10, Value: "v"}); r.Status != protocol.StatusStored {
			t.Errorf("handle add: %v", r.Status)
		}
		if r := s.Handle(p, &protocol.Request{Op: protocol.OpReplace, Key: "k", ValueSize: 10, Value: "w"}); r.Status != protocol.StatusStored {
			t.Errorf("handle replace: %v", r.Status)
		}
		if r := s.Handle(p, &protocol.Request{Op: protocol.OpAppend, Key: "k", ValueSize: 5, Value: "+"}); r.Status != protocol.StatusStored {
			t.Errorf("handle append: %v", r.Status)
		}
		if r := s.Handle(p, &protocol.Request{Op: protocol.OpTouch, Key: "k", Expire: 60}); r.Status != protocol.StatusOK {
			t.Errorf("handle touch: %v", r.Status)
		}
		s.Handle(p, &protocol.Request{Op: protocol.OpSet, Key: "c", ValueSize: counterSize, Value: uint64(1)})
		r := s.Handle(p, &protocol.Request{Op: protocol.OpIncr, Key: "c", Delta: 9})
		if r.Status != protocol.StatusOK || r.Value != uint64(10) || r.ValueSize != counterSize {
			t.Errorf("handle incr: %+v", r)
		}
		r = s.Handle(p, &protocol.Request{Op: protocol.OpDecr, Key: "c", Delta: 4})
		if r.Status != protocol.StatusOK || r.Value != uint64(6) {
			t.Errorf("handle decr: %+v", r)
		}
		// CAS via Handle.
		g := s.Handle(p, &protocol.Request{Op: protocol.OpGet, Key: "c"})
		r = s.Handle(p, &protocol.Request{Op: protocol.OpCAS, Key: "c", ValueSize: counterSize, Value: uint64(0), CAS: g.CAS})
		if r.Status != protocol.StatusStored {
			t.Errorf("handle cas: %v", r.Status)
		}
	})
	env.Run()
}

func TestFlushAll(t *testing.T) {
	env := sim.NewEnv()
	s := newStore(env, 4<<20, true)
	env.Spawn("op", func(p *sim.Proc) {
		for i := 0; i < 200; i++ {
			s.Set(p, fmt.Sprintf("k%03d", i), 32*1024, i, 0, 0)
		}
		if st := s.FlushAll(p); st != protocol.StatusOK {
			t.Errorf("flush_all: %v", st)
		}
		if _, _, _, _, st := s.Get(p, "k000"); st != protocol.StatusNotFound {
			t.Errorf("key survived flush_all: %v", st)
		}
		// The store is fully usable afterwards.
		if st := s.Set(p, "fresh", 1024, "v", 0, 0); st != protocol.StatusStored {
			t.Errorf("set after flush_all: %v", st)
		}
	})
	env.Run()
	if s.Len() != 1 || s.Flushes != 1 {
		t.Errorf("len=%d flushes=%d", s.Len(), s.Flushes)
	}
	mgr := s.Manager()
	if mgr.RAMItems() != 1 || mgr.SSDItems() != 0 || mgr.SSDUsed() != 0 {
		t.Errorf("storage not reclaimed: ram=%d ssd=%d used=%d",
			mgr.RAMItems(), mgr.SSDItems(), mgr.SSDUsed())
	}
}
