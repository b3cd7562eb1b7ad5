package store

import (
	"fmt"
	"testing"

	"hybridkv/internal/hybridslab"
	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
	"hybridkv/internal/simnet"
	"hybridkv/internal/slab"
	"hybridkv/internal/verbs"
)

// directoryModel returns a step on a RAM store with a directory attached that
// holds one key with a value of valueSize bytes: a Set of that key through
// the store, which opens the key's mutation window and republishes it, or,
// with republish, the directory's republish of the key's current item alone
// (what a restart's PublishAll or a landed eviction does).
func directoryModel(tb testing.TB, valueSize int, republish bool) (step func()) {
	env := sim.NewEnv()
	s := newStore(env, 16<<20, false)
	d := newTestDirectory(64)
	s.SetReadView(d)
	set := sim.Stepper(tb, env, "driver", func(p *sim.Proc) { s.Set(p, "k", valueSize, "v", 0, 0) })
	if set(); republish {
		return func() { d.Publish(s.item(protocol.KeyOf("k"))) }
	}
	return set
}

// newDirectoryModel returns a step that brings up a directory of the default
// geometry on one protection domain, as every cluster server does once.
func newDirectoryModel(testing.TB) (step func()) {
	env := sim.NewEnv()
	pd := verbs.OpenDevice(simnet.New(env, simnet.FDRInfiniBand()).AddNode("srv")).AllocPD()
	return func() { NewDirectory(pd, 0) }
}

// handleModel returns a step that runs req through Store.Handle on a RAM
// store holding key "k", and releases the reply as a client does once it has
// landed.
func handleModel(tb testing.TB, req *protocol.Request) (step func()) {
	env := sim.NewEnv()
	s := newStore(env, 16<<20, false)
	sim.Drive(tb, env, "warm-up", func(p *sim.Proc) { s.Set(p, "k", 512, "v", 0, 0) })
	return sim.Stepper(tb, env, "driver", func(p *sim.Proc) {
		resp := s.Handle(p, req)
		if resp.Status != protocol.StatusOK && resp.Status != protocol.StatusStored {
			panic("handle model: " + req.Op.String() + " answered " + resp.Status.String())
		}
		resp.Release()
	})
}

// overwriteSpilledModel returns a hybrid store with four times its RAM in
// 32 KB values, and a step that SETs keys round robin until one slab page has
// been evicted: from the second pass on, every key a SET replaces is the
// oldest, on the SSD, and RAM is full, so the step is one page's worth of
// overwrites of SSD-resident items and the one synchronous eviction they
// cause. Such a SET frees its slot and its item, and the next SET takes that
// item: once warm, no step allocates one.
func overwriteSpilledModel(tb testing.TB) (step func()) {
	env := sim.NewEnv()
	s := newStoreWithPolicy(env, 4<<20, true, hybridslab.PolicyDirect)
	keys := make([]string, 512)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%04d", i)
	}
	sets := 0
	page := sim.Stepper(tb, env, "driver", func(p *sim.Proc) {
		for flushed := s.mgr.FlushPages; s.mgr.FlushPages == flushed; sets++ {
			key := keys[sets%len(keys)]
			if old := s.item(protocol.KeyOf(key)); old != nil && !old.OnSSD() {
				panic("overwrite model: the oldest key is in RAM")
			}
			s.Set(p, key, 32<<10, "v", 0, 0)
		}
	})
	for sets < 2*len(keys) {
		page() // two passes: every key written, then rewritten from the SSD
	}
	made := s.mgr.Items.Made
	return func() {
		if page(); s.mgr.Items.Made != made {
			panic("overwrite model: a warm SET over an SSD-resident item allocated an item")
		}
	}
}

// The storage-phase models below are what batching executes back-to-back per
// frame, so their host cost bounds experiment wall time. Each runs on a RAM
// store with room for every key it touches.

// ramStore is a 1 GB RAM-only store and 1024 keys.
func ramStore() (*sim.Env, *Store, []string) {
	env := sim.NewEnv()
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("obj:%010d", i)
	}
	return env, New(env, hybridslab.New(env, hybridslab.Config{Slab: slab.Config{MemLimit: 1 << 30}}, nil)), keys
}

// storeSetModel returns a step that SETs the next of ramStore's keys, once
// each has been stored. The values are boxed before the step: an int past 255
// boxed per call would be the caller's allocation, not the store's.
func storeSetModel(tb testing.TB) (step func()) {
	env, s, keys := ramStore()
	values := make([]any, len(keys))
	for i := range values {
		values[i] = i
	}
	i := 0
	step = sim.Stepper(tb, env, "driver", func(p *sim.Proc) {
		s.Set(p, keys[i%len(keys)], 4096, values[i%len(keys)], 0, 0)
		i++
	})
	for range keys {
		step()
	}
	return step
}

// storeGetModel returns a step that GETs the next of ramStore's keys, all
// stored.
func storeGetModel(tb testing.TB) (step func()) {
	env, s, keys := ramStore()
	sim.Drive(tb, env, "fill", func(p *sim.Proc) {
		for i, key := range keys {
			s.Set(p, key, 4096, i, 0, 0)
		}
	})
	i := 0
	return sim.Stepper(tb, env, "driver", func(p *sim.Proc) {
		s.Get(p, keys[i%len(keys)])
		i++
	})
}

// handleBatchModel returns a step that runs a frame of 16 requests, SETs of
// eight keys each followed by a GET of the key it stored, as the server runs a
// frame's storage phases: back-to-back inside one eviction-coalescing window.
// Every GET is a hit on the value the SET before it stored. Each reply is
// released as its client would once it has landed, so it is reused.
func handleBatchModel(tb testing.TB) (step func()) {
	env, s, keys := ramStore()
	reqs := make([]*protocol.Request, 16)
	for i := range reqs {
		key := keys[i/2]
		if i%2 == 0 {
			reqs[i] = &protocol.Request{Op: protocol.OpSet, ReqID: uint64(i), Key: key, ValueSize: 4096, Value: i}
		} else {
			reqs[i] = &protocol.Request{Op: protocol.OpGet, ReqID: uint64(i), Key: key}
		}
	}
	return sim.Stepper(tb, env, "driver", func(p *sim.Proc) {
		s.mgr.BeginEvictionBatch(p)
		for i, req := range reqs {
			resp := s.Handle(p, req)
			if req.Op == protocol.OpGet && (resp.Status != protocol.StatusOK || resp.Value != i-1) {
				panic("handle batch model: a GET of the key the frame just stored answered " + resp.Status.String())
			}
			resp.Release()
		}
		s.mgr.EndEvictionBatch(p)
	})
}

// allocTable is the store's line of make allocs.
//
// A published key keeps its directory entry for as long as it owns its
// bucket, and every bucket and out-of-line value it publishes is a record off
// the directory's free lists that goes back once its MR segment lets go of
// it: a Set of an inline value (a bucket at the odd version that opens the
// window and one at the commit) and a republish, inline or out of line,
// allocate nothing. The Set's item is the one the Set before it replaced, off
// the manager's free list. They were 2 and 1 while each bucket was boxed
// into the MR afresh, 3 and 1 while every stored item was allocated afresh
// too, and 4 and 2 while every publish allocated a fresh entry as well.
//
// The storage phase's answer comes from the store's free list, and a released
// reply is the next one handed out; a SET's item comes from its manager's,
// and the item it replaces is the next one handed out. A GET hit and a SET
// allocate nothing (a SET was 1, its item, before items were reused), nor
// does a frame of them.
//
// A directory's bring-up allocates 7: the directory and its two MRs, the
// bucket region's segment array, the per-way versions and entries, and the
// per-bucket spill counts; the value arena's offset map is made at its first
// published segment. It was 8 while emptying a region made its map to switch
// it from a whole-region payload to segments, and 282 while the bucket region
// kept its 32 768 segments in an offset map, grown by rehash.
//
// What a page of SETs over SSD-resident items allocates is the eviction's
// region write alone (6: the region writer's ceiling in internal/hybridslab).
var allocTable = []struct {
	name    string
	model   func(testing.TB) (step func())
	ceiling float64
}{
	{"DirectorySet", func(tb testing.TB) func() { return directoryModel(tb, 64, false) }, 0},
	{"DirectoryRepublish", func(tb testing.TB) func() { return directoryModel(tb, 64, true) }, 0},
	{"DirectoryRepublishOutOfLine", func(tb testing.TB) func() { return directoryModel(tb, big, true) }, 0},
	{"NewDirectory", newDirectoryModel, 7},
	{"HandleGet", func(tb testing.TB) func() {
		return handleModel(tb, &protocol.Request{Op: protocol.OpGet, Key: "k"})
	}, 0},
	{"HandleSet", func(tb testing.TB) func() {
		return handleModel(tb, &protocol.Request{Op: protocol.OpSet, Key: "k", ValueSize: 512, Value: "v"})
	}, 0},
	{"StoreOverwriteSpilled", overwriteSpilledModel, 6},
	{"StoreSet", storeSetModel, 0},
	{"StoreGet", storeGetModel, 0},
	{"StoreHandleBatch16", handleBatchModel, 0},
}

// TestStoreAllocationCeilings logs each row's name=count for make allocs.
func TestStoreAllocationCeilings(t *testing.T) {
	for _, row := range allocTable {
		t.Run(row.name, func(t *testing.T) {
			step := row.model(t)
			step() // warm: pools, rings and maps at size
			got := testing.AllocsPerRun(100, step)
			if t.Logf("%s=%v", row.name, got); got > row.ceiling {
				t.Errorf("%s=%v, ceiling %v", row.name, got, row.ceiling)
			}
		})
	}
}

// BenchmarkAllocs runs allocTable's rows as sub-benchmarks.
func BenchmarkAllocs(b *testing.B) {
	for _, row := range allocTable {
		b.Run(row.name, func(b *testing.B) {
			step := row.model(b)
			step()
			b.ReportAllocs()
			for b.Loop() {
				step()
			}
		})
	}
}
