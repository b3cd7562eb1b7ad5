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
	sim.Drive(t, env, "op", func(p *sim.Proc) {
		if st := s.Add(p, "k", 100, "first", 0); st != protocol.StatusStored {
			t.Errorf("add on fresh key: %v", st)
		}
		if st := s.Add(p, "k", 100, "second", 0); st != protocol.StatusNotStored {
			t.Errorf("add on existing key: %v", st)
		}
		v, _, _, _, _ := s.Get(p, "k")
		if v != "first" {
			t.Errorf("add overwrote: %v", v)
		}
	})
}

func TestCompareAndSetSemantics(t *testing.T) {
	env := sim.NewEnv()
	s := newStore(env, 16<<20, false)
	sim.Drive(t, env, "op", func(p *sim.Proc) {
		if st := s.CompareAndSet(p, "k", 10, "x", 0, 1); st != protocol.StatusNotFound {
			t.Errorf("cas on missing key: %v", st)
		}
		s.Set(p, "k", 10, "v1", 0, 0)
		_, _, _, cas, _ := s.Get(p, "k")
		if st := s.CompareAndSet(p, "k", 10, "v2", 0, cas); st != protocol.StatusStored {
			t.Errorf("cas with current token: %v", st)
		}
		// The old token is now stale.
		if st := s.CompareAndSet(p, "k", 10, "v3", 0, cas); st != protocol.StatusExists {
			t.Errorf("cas with stale token: %v", st)
		}
		v, _, _, _, _ := s.Get(p, "k")
		if v != "v2" {
			t.Errorf("cas left value %v", v)
		}
	})
}

func TestIncrSemantics(t *testing.T) {
	env := sim.NewEnv()
	s := newStore(env, 16<<20, false)
	sim.Drive(t, env, "op", func(p *sim.Proc) {
		if _, st := s.Incr(p, "c", 1); st != protocol.StatusNotFound {
			t.Errorf("incr on missing key: %v", st)
		}
		s.Set(p, "c", protocol.CounterSize, uint64(10), 0, 0)
		if v, st := s.Incr(p, "c", 5); st != protocol.StatusOK || v != 15 {
			t.Errorf("incr -> (%d,%v)", v, st)
		}
		// Non-counter values are rejected.
		s.Set(p, "s", 10, "text", 0, 0)
		if _, st := s.Incr(p, "s", 1); st != protocol.StatusBadValue {
			t.Errorf("incr on text: %v", st)
		}
	})
}

func TestIncrAdvancesCAS(t *testing.T) {
	env := sim.NewEnv()
	s := newStore(env, 16<<20, false)
	sim.Drive(t, env, "op", func(p *sim.Proc) {
		s.Set(p, "c", protocol.CounterSize, uint64(0), 0, 0)
		_, _, _, cas1, _ := s.Get(p, "c")
		s.Incr(p, "c", 1)
		_, _, _, cas2, _ := s.Get(p, "c")
		if cas2 <= cas1 {
			t.Errorf("incr did not advance CAS: %d -> %d", cas1, cas2)
		}
	})
}

func TestIncrOnSSDResidentCounter(t *testing.T) {
	env := sim.NewEnv()
	s := newStore(env, 4<<20, true)
	sim.Drive(t, env, "op", func(p *sim.Proc) {
		// Push the counter to the SSD with filler. Eviction takes its victims
		// from the class that is allocating, so the counter is stored at the
		// fillers' size (at protocol.CounterSize it stayed in RAM, and this test with it).
		s.Set(p, "c", 32*1024, uint64(41), 0, 0)
		for i := 0; i < 200; i++ {
			s.Set(p, fmt.Sprintf("fill%04d", i), 32*1024, i, 0, 0)
		}
		if !s.item(protocol.KeyOf("c")).OnSSD() {
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
}

// A counter that is not in RAM is rewritten through the store path rather
// than mutated in place: a new RAM-resident item holding the sum, under a
// fresh CAS token, with the counter's flags.
func TestIncrOnSSDResidentCounterRewritesValueAndCAS(t *testing.T) {
	env := sim.NewEnv()
	s := newStore(env, 4<<20, true)
	sim.Drive(t, env, "op", func(p *sim.Proc) {
		s.Set(p, "c", 32*1024, uint64(41), 9, 0)
		for i := 0; i < 200; i++ {
			s.Set(p, fmt.Sprintf("fill%04d", i), 32*1024, i, 0, 0)
		}
		cold := s.item(protocol.KeyOf("c"))
		if !cold.OnSSD() {
			t.Fatal("fixture: the counter is not on the SSD")
		}
		if v, st := s.Incr(p, "c", 1); st != protocol.StatusOK || v != 42 {
			t.Fatalf("incr on cold counter -> (%d,%v)", v, st)
		}
		it := s.item(protocol.KeyOf("c"))
		if it == cold || it.OnSSD() || it.Value != uint64(42) || it.ValueSize != protocol.CounterSize || it.Flags != 9 {
			t.Errorf("rewritten counter: %+v (the cold item was %p)", it, cold)
		}
		if it.CAS <= cold.CAS {
			t.Errorf("rewrite kept CAS %d (cold item had %d)", it.CAS, cold.CAS)
		}
		if _, _, flags, cas, st := s.Get(p, "c"); st != protocol.StatusOK || flags != 9 || cas != it.CAS {
			t.Errorf("get after the rewrite: flags %d, cas %d, %v", flags, cas, st)
		}
	})
}

func TestHandleExtendedOps(t *testing.T) {
	env := sim.NewEnv()
	s := newStore(env, 16<<20, false)
	sim.Drive(t, env, "op", func(p *sim.Proc) {
		if r := s.Handle(p, &protocol.Request{Op: protocol.OpAdd, Key: "k", ValueSize: 10, Value: "v"}); r.Status != protocol.StatusStored {
			t.Errorf("handle add: %v", r.Status)
		}
		s.Handle(p, &protocol.Request{Op: protocol.OpSet, Key: "c", ValueSize: protocol.CounterSize, Value: uint64(1)})
		r := s.Handle(p, &protocol.Request{Op: protocol.OpIncr, Key: "c", Delta: 9})
		if r.Status != protocol.StatusOK || r.Value != uint64(10) || r.ValueSize != protocol.CounterSize {
			t.Errorf("handle incr: %+v", r)
		}
		// CAS via Handle.
		g := s.Handle(p, &protocol.Request{Op: protocol.OpGet, Key: "c"})
		r = s.Handle(p, &protocol.Request{Op: protocol.OpCAS, Key: "c", ValueSize: protocol.CounterSize, Value: uint64(0), CAS: g.CAS})
		if r.Status != protocol.StatusStored {
			t.Errorf("handle cas: %v", r.Status)
		}
	})
}
