package store

import (
	"fmt"
	"math/rand"
	"testing"

	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
)

// TestGetRacingSetOnOneKey lets four workers (a server's storage workers)
// GET and SET the same 16 preloaded keys with no ordering between them. A
// preloaded key is never deleted, so a GET must find it, with a value: a Set
// that replaces the item while the Get's load is suspended must not turn
// into NOT_FOUND (the Get tearing down the new item's table entry) or into
// OK with the released item's nil value.
func TestGetRacingSetOnOneKey(t *testing.T) {
	const valueSize = 32 << 10
	for _, tc := range []struct {
		name     string
		memLimit int64
		keys     int // preloaded; 16 of them, evenly spread, are raced
	}{
		{"values in RAM", 64 << 20, 16},
		{"values spilled to SSD", 4 << 20, 512},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewEnv()
			s := newStore(env, tc.memLimit, true)
			key := func(i int) string { return fmt.Sprintf("key-%04d", i) }
			env.Spawn("preload", func(p *sim.Proc) {
				for i := 0; i < tc.keys; i++ {
					s.Set(p, key(i), valueSize, i, 0, 0)
				}
			})
			env.Run()

			rng := rand.New(rand.NewSource(1))
			var notFound, valueless, gets int
			for w := 0; w < 4; w++ {
				env.Spawn("worker", func(p *sim.Proc) {
					for i := 0; i < 2000; i++ {
						k := key(rng.Intn(16) * tc.keys / 16)
						if rng.Intn(2) == 0 {
							s.Set(p, k, valueSize, i, 0, 0)
							continue
						}
						gets++
						switch v, _, _, _, st := s.Get(p, k); {
						case st == protocol.StatusNotFound:
							notFound++
						case st != protocol.StatusOK:
							t.Errorf("GET %s: status %v", k, st)
						case v == nil:
							valueless++
						}
					}
				})
			}
			env.Run()
			if notFound > 0 || valueless > 0 {
				t.Errorf("%d GETs of preloaded keys: %d NOT_FOUND, %d OK with no value", gets, notFound, valueless)
			}
			if s.Len() != tc.keys {
				t.Errorf("table holds %d keys, want %d", s.Len(), tc.keys)
			}
		})
	}
}
