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

func TestIncrSemantics(t *testing.T) {
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

// A counter that is not in RAM is rewritten through the store path rather
// than mutated in place; the rewrite is still the same item, expiry included.
func TestIncrOnSSDResidentCounterKeepsItsTTL(t *testing.T) {
	env := sim.NewEnv()
	s := newStore(env, 4<<20, true)
	env.Spawn("op", func(p *sim.Proc) {
		s.Set(p, "c", 32*1024, uint64(41), 0, 60)
		expireAt := s.table["c"].ExpireAt
		for i := 0; i < 200; i++ {
			s.Set(p, fmt.Sprintf("fill%04d", i), 32*1024, i, 0, 0)
		}
		if !s.table["c"].OnSSD() {
			t.Fatal("fixture: the counter is not on the SSD")
		}
		if v, st := s.Incr(p, "c", 1); st != protocol.StatusOK || v != 42 {
			t.Fatalf("incr on cold counter -> (%d,%v)", v, st)
		}
		if got := s.table["c"].ExpireAt; got != expireAt {
			t.Errorf("the rewritten counter expires at %v, want %v (its TTL)", got, expireAt)
		}
		p.Sleep(expireAt - p.Now())
		if _, _, _, _, st := s.Get(p, "c"); st != protocol.StatusNotFound {
			t.Errorf("the counter is served at its expiry: %v", st)
		}
	})
	env.Run()
}

// An increment decides on the item it read and writes its result an update
// later. If the item expired in between, the key is dead: the write is
// refused (still), the retry finds no item, and the key is not served past
// its TTL.
func TestIncrRacingItsItemsExpiryIsRefused(t *testing.T) {
	// incrBefore increments lead before the item's expiry; it returns the
	// answer, how long the increment took, and what a Get right after it finds.
	incrBefore := func(lead sim.Time) (st protocol.Status, took sim.Time, after protocol.Status) {
		env := sim.NewEnv()
		s := newStore(env, 16<<20, false)
		env.Spawn("op", func(p *sim.Proc) {
			s.Set(p, "k", counterSize, uint64(1), 0, 10)
			p.Sleep(s.table["k"].ExpireAt - lead - p.Now())
			t0 := p.Now()
			_, st = s.Incr(p, "k", 1)
			took = p.Now() - t0
			_, _, _, _, after = s.Get(p, "k")
		})
		env.Run()
		return st, took, after
	}
	st, took, after := incrBefore(sim.Second)
	if st != protocol.StatusOK || after != protocol.StatusOK {
		t.Fatalf("fixture: an incr a second before the expiry -> %v, then a Get -> %v", st, after)
	}
	// Half the clean increment before the expiry: the read sees a live item,
	// the write comes after the expiry.
	if st, _, after = incrBefore(took / 2); st != protocol.StatusNotFound {
		t.Errorf("an incr that outlived its item's TTL answered %v, want %v", st, protocol.StatusNotFound)
	}
	if after != protocol.StatusNotFound {
		t.Errorf("the key is served after its TTL: %v", after)
	}
}

func TestHandleExtendedOps(t *testing.T) {
	env := sim.NewEnv()
	s := newStore(env, 16<<20, false)
	env.Spawn("op", func(p *sim.Proc) {
		if r := s.Handle(p, &protocol.Request{Op: protocol.OpAdd, Key: "k", ValueSize: 10, Value: "v"}); r.Status != protocol.StatusStored {
			t.Errorf("handle add: %v", r.Status)
		}
		s.Handle(p, &protocol.Request{Op: protocol.OpSet, Key: "c", ValueSize: counterSize, Value: uint64(1)})
		r := s.Handle(p, &protocol.Request{Op: protocol.OpIncr, Key: "c", Delta: 9})
		if r.Status != protocol.StatusOK || r.Value != uint64(10) || r.ValueSize != counterSize {
			t.Errorf("handle incr: %+v", r)
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
