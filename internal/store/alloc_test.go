package store

import (
	"fmt"
	"testing"

	"hybridkv/internal/hybridslab"
	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
)

// directoryModel returns a RAM store with a directory attached that holds one
// key with a value of valueSize bytes, and two steps: a Set of that key
// through the store, which opens the key's mutation window and republishes
// it, and the directory's republish of the key's current item alone (what a
// restart's PublishAll or a landed eviction does).
func directoryModel(valueSize int) (set, republish func()) {
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
			s.Set(p, "k", valueSize, "v", 0, 0)
		}
	})
	set = func() {
		kick.TryPut(struct{}{})
		env.Run() // no driver: it parks on kick between steps, and the step's allocations are what is counted
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
	set, _ := directoryModel(64)
	benchStep(b, set)
}

func BenchmarkDirectoryRepublish(b *testing.B) {
	_, republish := directoryModel(64)
	benchStep(b, republish)
}

// A published key keeps its directory entry for as long as it owns its
// bucket, and every bucket and out-of-line value it publishes is a record off
// the directory's free lists that goes back once its MR segment lets go of
// it: a Set of an inline value (a bucket at the odd version that opens the
// window and one at the commit) and a republish, inline or out of line,
// allocate nothing. The Set's item is the one the Set before it replaced, off
// the manager's free list. They were 2 and 1 while each bucket was boxed
// into the MR afresh, 3 and 1 while every stored item was allocated afresh
// too, and 4 and 2 while every publish allocated a fresh entry as well.
func TestDirectoryAllocationCeiling(t *testing.T) {
	set, republish := directoryModel(64)
	_, republishBig := directoryModel(big)
	for _, tc := range []struct {
		name    string
		step    func()
		ceiling float64
	}{
		{"SET of an inline value onto a store with a directory", set, 0},
		{"republish of that key", republish, 0},
		{"republish of a key with an out-of-line value", republishBig, 0},
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
		env.Run() // no driver: it parks on kick between steps, and the step's allocations are what is counted
	}
}

// The storage phase's answer comes from the store's free list, and a released
// reply is the next one handed out; a SET's item comes from its manager's,
// and the item it replaces is the next one handed out. A GET hit and a SET
// allocate nothing (a SET was 1, its item, before items were reused).
func TestHandleAllocationCeiling(t *testing.T) {
	for _, tc := range []struct {
		name    string
		req     *protocol.Request
		ceiling float64
	}{
		{"GET hit, its reply released", &protocol.Request{Op: protocol.OpGet, Key: "k"}, 0},
		{"SET, its reply released", &protocol.Request{Op: protocol.OpSet, Key: "k", ValueSize: 512, Value: "v"}, 0},
	} {
		step := handleModel(tc.req)
		step()
		if got := testing.AllocsPerRun(300, step); got > tc.ceiling {
			t.Errorf("one %s: %v allocations, ceiling %v", tc.name, got, tc.ceiling)
		}
	}
}

// overwriteSpilledModel returns a hybrid store with four times its RAM in
// 32 KB values, and a step that SETs keys round robin until one slab page has
// been evicted: from the second pass on, every key a SET replaces is the
// oldest, on the SSD, and RAM is full, so the step is one page's worth of
// overwrites of SSD-resident items and the one synchronous eviction they
// cause. items reports how many items the manager has allocated.
func overwriteSpilledModel() (step func(), items func() int64) {
	env := sim.NewEnv()
	s := newStoreWithPolicy(env, 4<<20, true, hybridslab.PolicyDirect)
	keys := make([]string, 512)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%04d", i)
	}
	sets := 0
	kick := sim.NewQueue[struct{}](env, 0)
	env.Spawn("driver", func(p *sim.Proc) {
		for {
			if _, ok := kick.Get(p); !ok {
				return
			}
			for flushed := s.mgr.FlushPages; s.mgr.FlushPages == flushed; sets++ {
				key := keys[sets%len(keys)]
				if old := s.table[key]; old != nil && !old.OnSSD() {
					panic("overwrite model: the oldest key is in RAM")
				}
				s.Set(p, key, 32<<10, "v", 0, 0)
			}
		}
	})
	step = func() {
		kick.TryPut(struct{}{})
		env.Run() // no driver: it parks on kick between steps, and the step's allocations are what is counted
	}
	for sets < 2*len(keys) {
		step() // two passes: every key written, then rewritten from the SSD
	}
	return step, func() int64 { return int64(s.mgr.Items.Made) }
}

// BenchmarkStoreOverwriteSpilled is one page's worth of SETs that replace
// SSD-resident items, with the eviction they cause.
func BenchmarkStoreOverwriteSpilled(b *testing.B) {
	step, _ := overwriteSpilledModel()
	benchStep(b, step)
}

// A SET that replaces an SSD-resident item frees its slot and its item, and
// the next SET takes that item: once warm, no SET allocates one. What a page
// of them allocates is the eviction's region write alone (8: the region
// writer's ceiling in internal/hybridslab).
func TestOverwriteSpilledAllocationCeiling(t *testing.T) {
	step, items := overwriteSpilledModel()
	made := items()
	if got := testing.AllocsPerRun(100, step); got > 8 {
		t.Errorf("one page of SETs over SSD-resident items: %v allocations, ceiling 8", got)
	}
	if n := items() - made; n != 0 {
		t.Errorf("%d items allocated after warm-up, want 0", n)
	}
}
