package store

import (
	"fmt"
	"testing"

	"hybridkv/internal/hybridslab"
	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
	"hybridkv/internal/slab"
)

// The storage-phase microbenchmarks measure simulator host cost (wall time
// per simulated op), not simulated latency: batching executes these paths
// back-to-back per frame, so their allocation behaviour bounds experiment
// wall time.

func benchStore(b *testing.B, fn func(p *sim.Proc, s *Store, i int)) {
	env := sim.NewEnv()
	mgr := hybridslab.New(env, hybridslab.Config{
		Slab: slab.Config{MemLimit: 1 << 30},
	}, nil)
	s := New(env, mgr)
	env.Spawn("bench", func(p *sim.Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fn(p, s, i)
		}
	})
	env.Run()
}

func BenchmarkStoreSet(b *testing.B) {
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("obj:%010d", i)
	}
	benchStore(b, func(p *sim.Proc, s *Store, i int) {
		s.Set(p, keys[i%len(keys)], 4096, i, 0, 0)
	})
}

func BenchmarkStoreGet(b *testing.B) {
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("obj:%010d", i)
	}
	benchStore(b, func(p *sim.Proc, s *Store, i int) {
		if i < len(keys) {
			s.Set(p, keys[i], 4096, i, 0, 0)
			return
		}
		s.Get(p, keys[i%len(keys)])
	})
}

// batchOf builds a frame-sized request slice alternating Set and Get.
func batchOf(n int) []*protocol.Request {
	reqs := make([]*protocol.Request, n)
	for i := range reqs {
		key := fmt.Sprintf("obj:%010d", i)
		if i%2 == 0 {
			reqs[i] = &protocol.Request{Op: protocol.OpSet, ReqID: uint64(i), Key: key, ValueSize: 4096, Value: i}
		} else {
			reqs[i] = &protocol.Request{Op: protocol.OpGet, ReqID: uint64(i), Key: key}
		}
	}
	return reqs
}

func BenchmarkStoreHandleBatch16(b *testing.B) {
	env := sim.NewEnv()
	mgr := hybridslab.New(env, hybridslab.Config{
		Slab: slab.Config{MemLimit: 1 << 30},
	}, nil)
	s := New(env, mgr)
	reqs := batchOf(16)
	env.Spawn("bench", func(p *sim.Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A frame's storage phases, as the server runs them: back-to-back
			// inside one eviction-coalescing window.
			mgr.BeginEvictionBatch(p)
			for _, req := range reqs {
				s.Handle(p, req)
			}
			mgr.EndEvictionBatch(p)
		}
	})
	env.Run()
}
