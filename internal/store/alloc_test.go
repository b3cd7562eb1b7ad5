package store

import (
	"testing"

	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
)

// directoryModel returns a RAM store with a directory attached that holds one
// key with an inline value, and two steps: a Set of that key through the
// store, which opens the key's mutation window and republishes it, and the
// directory's republish of the key's current item alone (what a restart's
// PublishAll or a landed eviction does).
func directoryModel() (set, republish func()) {
	env := sim.NewEnv()
	s := newStore(env, 16<<20, false)
	d := newTestDirectory(64)
	s.SetReadView(d)
	kick := sim.NewQueue[struct{}](env, 0)
	env.Spawn("driver", func(p *sim.Proc) {
		for {
			if _, ok := kick.Get(p); !ok {
				return
			}
			s.Set(p, "k", 64, "v", 0, 0)
		}
	})
	set = func() {
		kick.TryPut(struct{}{})
		env.Run()
	}
	set()
	return set, func() { d.Publish(s.table["k"]) }
}

func benchStep(b *testing.B, step func()) {
	step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkDirectorySet and BenchmarkDirectoryRepublish are the directory's
// host-cost lines.
func BenchmarkDirectorySet(b *testing.B) {
	set, _ := directoryModel()
	benchStep(b, set)
}

func BenchmarkDirectoryRepublish(b *testing.B) {
	_, republish := directoryModel()
	benchStep(b, republish)
}

// A published key keeps its directory entry for as long as it owns its
// bucket, so republishing it allocates only the slot boxed for the MR: a Set
// of an inline value is 3 allocations (the item, the slot boxed at the odd
// version that opens the window and at the commit) and a republish alone is
// 1. They were 4 and 2 while every publish allocated a fresh entry.
func TestDirectoryAllocationCeiling(t *testing.T) {
	set, republish := directoryModel()
	for _, tc := range []struct {
		name    string
		step    func()
		ceiling float64
	}{
		{"SET of an inline value onto a store with a directory", set, 3},
		{"republish of that key", republish, 1},
	} {
		tc.step()
		if got := testing.AllocsPerRun(300, tc.step); got > tc.ceiling {
			t.Errorf("one %s: %v allocations, ceiling %v", tc.name, got, tc.ceiling)
		}
	}
}

// handleModel returns a step that runs req through Store.Handle on a RAM
// store holding key "k", and releases the reply as a client does once it has
// landed.
func handleModel(req *protocol.Request) (step func()) {
	env := sim.NewEnv()
	s := newStore(env, 16<<20, false)
	kick := sim.NewQueue[struct{}](env, 0)
	env.Spawn("driver", func(p *sim.Proc) {
		s.Set(p, "k", 512, "v", 0, 0)
		for {
			if _, ok := kick.Get(p); !ok {
				return
			}
			resp := s.Handle(p, req)
			if resp.Status != protocol.StatusOK && resp.Status != protocol.StatusStored {
				panic("handle model: " + req.Op.String() + " answered " + resp.Status.String())
			}
			resp.Release()
		}
	})
	return func() {
		kick.TryPut(struct{}{})
		env.Run()
	}
}

// The storage phase's answer comes from the store's free list, and a released
// reply is the next one handed out: a GET hit allocates nothing, and a SET
// only its item (1).
func TestHandleAllocationCeiling(t *testing.T) {
	for _, tc := range []struct {
		name    string
		req     *protocol.Request
		ceiling float64
	}{
		{"GET hit, its reply released", &protocol.Request{Op: protocol.OpGet, Key: "k"}, 0},
		{"SET, its reply released", &protocol.Request{Op: protocol.OpSet, Key: "k", ValueSize: 512, Value: "v"}, 1},
	} {
		step := handleModel(tc.req)
		step()
		if got := testing.AllocsPerRun(300, step); got > tc.ceiling {
			t.Errorf("one %s: %v allocations, ceiling %v", tc.name, got, tc.ceiling)
		}
	}
}
