package store

import (
	"fmt"
	"math/rand"
	"testing"

	"hybridkv/internal/hybridslab"
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
			sim.Drive(t, env, "preload", func(p *sim.Proc) {
				for i := 0; i < tc.keys; i++ {
					s.Set(p, key(i), valueSize, i, 0, 0)
				}
			})

			rng := rand.New(rand.NewSource(1))
			var notFound, valueless, gets int
			var ws []sim.Driver
			for w := 0; w < 4; w++ {
				ws = append(ws, sim.Driver{Name: "worker", Fn: func(p *sim.Proc) {
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
				}})
			}
			sim.DriveUntil(t, env, -1, ws...)
			if notFound > 0 || valueless > 0 {
				t.Errorf("%d GETs of preloaded keys: %d NOT_FOUND, %d OK with no value", gets, notFound, valueless)
			}
			if s.Len() != tc.keys {
				t.Errorf("table holds %d keys, want %d", s.Len(), tc.keys)
			}
		})
	}
}

// TestConditionalCommandsRacingOnOneKey is the async server's storage pool in
// miniature: four workers run the conditional and read-modify-write commands
// against the same keys with nothing ordering them. Each command decides on
// what it read and then suspends — in the allocation, an eviction, a memcpy —
// before it stores, so the decision has to be made again at the instant of
// the store: one CAS token buys one store, a fresh key is added once, no
// increment is lost, and an in-place increment never republishes an item a
// concurrent Set released meanwhile.
// Checked on values that stay in RAM and on a store small enough that the
// raced keys start out spilled to the SSD.
func TestConditionalCommandsRacingOnOneKey(t *testing.T) {
	const (
		workers   = 4
		perWorker = 100
		fillSize  = 32 << 10
	)
	for _, tc := range []struct {
		name     string
		memLimit int64
		fill     int // filler keys that push the raced ones out to the SSD
	}{
		{"values in RAM", 64 << 20, 0},
		{"values spilled to SSD", 4 << 20, 512},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewEnv()
			s := newStore(env, tc.memLimit, true)
			d := newTestDirectory(1 << 10)
			s.SetReadView(d)
			var token uint64
			sim.Drive(t, env, "preload", func(p *sim.Proc) {
				// Eviction takes its victims from the class that is allocating, so
				// to start out spilled a raced key is stored at the fillers' size.
				size := protocol.CounterSize
				if tc.fill > 0 {
					size = fillSize
				}
				s.Set(p, "cas", size, "v0", 0, 0)
				s.Set(p, "up", size, uint64(0), 0, 0)
				s.Set(p, "raced", size, uint64(0), 0, 0)
				// The fillers push the raced keys out and then go: with room in RAM
				// nothing is evicted during the race (an eviction under it is
				// TestIncrementsRacingTheEvictionOfTheirCounter's).
				for i := 0; i < tc.fill; i++ {
					s.Set(p, fmt.Sprintf("fill-%05d", i), fillSize, i, 0, 0)
				}
				for i := 0; i < tc.fill; i++ {
					s.Delete(p, fmt.Sprintf("fill-%05d", i))
				}
				for _, key := range []string{"cas", "up", "raced"} {
					if spilled := s.item(protocol.KeyOf(key)).OnSSD(); spilled != (tc.fill > 0) {
						t.Fatalf("fixture: %s on the SSD = %v", key, spilled)
					}
				}
				_, _, _, token, _ = s.Get(p, "cas")
			})

			// A seeded jitter between commands sweeps how the workers' suspensions
			// line up instead of leaving them in lockstep.
			rng := rand.New(rand.NewSource(1))
			// published checks that what the directory holds for key is the live
			// item: a RAM-resident one is never flagged SSD-resident (what
			// publishing a released item writes), and — once the race is over — no
			// mutation window is left open.
			published := func(key string, quiet bool) {
				it := s.item(protocol.KeyOf(key))
				slot, ok := d.slotFor(t, key)
				if it == nil || !ok {
					return // displaced by a colliding filler key
				}
				if slot.Version%2 != 0 {
					if quiet {
						t.Errorf("%s: mutation window left open (version %d)", key, slot.Version)
					}
					return
				}
				if !it.OnSSD() && slot.Kind != protocol.DirInline {
					t.Errorf("%s: RAM-resident item published as %v", key, slot.Kind)
				}
				if slot.Kind == protocol.DirInline && slot.CAS != it.CAS {
					t.Errorf("%s: slot carries CAS %d, the live item %d", key, slot.CAS, it.CAS)
				}
			}
			var casStored, addStored int
			var ws []sim.Driver
			for w := 0; w < workers; w++ {
				ws = append(ws, sim.Driver{Name: "worker", Fn: func(p *sim.Proc) {
					if s.CompareAndSet(p, "cas", 64, fmt.Sprintf("w%d", w), 0, token) == protocol.StatusStored {
						casStored++
					}
					if s.Add(p, "fresh", 64, w, 0) == protocol.StatusStored {
						addStored++
					}
					for i := 0; i < perWorker; i++ {
						if _, st := s.Incr(p, "up", 1); st != protocol.StatusOK {
							t.Errorf("incr: %v", st)
						}
						published("up", false)
						p.Sleep(sim.Time(rng.Intn(400)) * sim.Nanosecond)
						// An increment racing a replacement of the same key.
						if w%2 == 0 {
							if _, st := s.Incr(p, "raced", 1); st != protocol.StatusOK {
								t.Errorf("incr of a replaced counter: %v", st)
							}
							published("raced", false)
						} else {
							s.Set(p, "raced", 64, uint64(i), 0, 0)
						}
					}
				}})
			}
			sim.DriveUntil(t, env, -1, ws...)

			if casStored != 1 {
				t.Errorf("%d of %d CAS stores holding one token answered STORED, want 1", casStored, workers)
			}
			if addStored != 1 {
				t.Errorf("%d of %d adds of one fresh key answered STORED, want 1", addStored, workers)
			}
			sim.Drive(t, env, "audit", func(p *sim.Proc) {
				if v, _, _, _, _ := s.Get(p, "up"); v != uint64(workers*perWorker) {
					t.Errorf("counter after %d increments: %v", workers*perWorker, v)
				}
				for _, key := range []string{"cas", "fresh", "up", "raced"} {
					published(key, true)
				}
			})
		})
	}
}

// TestIncrementsRacingTheEvictionOfTheirCounter is the increment race of
// TestConditionalCommandsRacingOnOneKey with a fifth worker whose stores force
// the counter out to the SSD under it. The slab manager stages its victims —
// the flush captures their fields while they are still the table's entries —
// and an in-place write to a staged item used to land nowhere: the SSD copy
// held what the flush had captured. The store asks the item whether its
// fields are still the authoritative copy (Item.InPlace) at the instant it
// writes them, and rewrites through the store path when they are not. Direct
// I/O keeps the flush in flight for the length of the device write, so most of
// the race runs between the capture and the landing: 29 of 400 increments
// survived.
func TestIncrementsRacingTheEvictionOfTheirCounter(t *testing.T) {
	const (
		workers   = 4
		perWorker = 100
		memLimit  = 4 << 20
		fillSize  = 32 << 10
	)
	filler := func(i int) string { return fmt.Sprintf("fill-%05d", i) }
	// How many fillers RAM holds beside the counter before the next store
	// evicts: counted on a store of the same geometry.
	room := 0
	{
		env := sim.NewEnv()
		s := newStoreWithPolicy(env, memLimit, true, hybridslab.PolicyDirect)
		sim.Drive(t, env, "measure", func(p *sim.Proc) {
			s.Set(p, "up", fillSize, uint64(0), 0, 0)
			for s.Manager().FlushPages == 0 {
				s.Set(p, filler(room), fillSize, room, 0, 0)
				room++
			}
			room-- // the last one evicted
		})
	}

	env := sim.NewEnv()
	s := newStoreWithPolicy(env, memLimit, true, hybridslab.PolicyDirect)
	sim.Drive(t, env, "preload", func(p *sim.Proc) {
		// The counter is stored at the fillers' size (eviction takes its victims
		// from the class that is allocating) and first: the oldest of its class.
		s.Set(p, "up", fillSize, uint64(0), 0, 0)
		for i := 0; i < room; i++ {
			s.Set(p, filler(i), fillSize, i, 0, 0)
		}
		if s.Manager().FlushPages != 0 || !s.item(protocol.KeyOf("up")).InPlace() {
			t.Fatal("fixture: the counter left RAM before the race")
		}
	})

	var ds []sim.Driver
	for w := 0; w < workers; w++ {
		ds = append(ds, sim.Driver{Name: "worker", Fn: func(p *sim.Proc) {
			for i := 0; i < perWorker; i++ {
				if _, st := s.Incr(p, "up", 1); st != protocol.StatusOK {
					t.Errorf("incr: %v", st)
				}
			}
		}})
	}
	staged := false
	s.Manager().SetNotify(func(it *hybridslab.Item, ev hybridslab.NotifyEvent) {
		staged = staged || it.Key == "up" && ev == hybridslab.EvictStaged
	})
	sim.DriveUntil(t, env, -1, append(ds, sim.Driver{Name: "evictor", Fn: func(p *sim.Proc) {
		s.Set(p, filler(room), fillSize, room, 0, 0)
	}})...)
	if !staged {
		t.Fatal("the counter was never staged for eviction under the increments: the test proves nothing")
	}
	sim.Drive(t, env, "audit", func(p *sim.Proc) {
		if v, _, _, _, _ := s.Get(p, "up"); v != uint64(workers*perWorker) {
			t.Errorf("%v of %d increments survived", v, workers*perWorker)
		}
	})
}
