package store

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hybridkv/internal/blockdev"
	"hybridkv/internal/hybridslab"
	"hybridkv/internal/pagecache"
	"hybridkv/internal/pool"
	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
	"hybridkv/internal/slab"
)

// spillingStore is a 4 MB direct-I/O hybrid store, so every SSD load comes off
// the media, and the device under it.
func spillingStore(env *sim.Env, asyncFlush bool) (*Store, *blockdev.Device) {
	dev := blockdev.New(env, blockdev.SATA(), 8<<30)
	cache := pagecache.New(env, dev, pagecache.DefaultParams())
	return New(env, hybridslab.New(env, hybridslab.Config{
		Slab:       slab.Config{MemLimit: 4 << 20},
		Policy:     hybridslab.PolicyDirect,
		AsyncFlush: asyncFlush,
	}, cache.OpenFile(0, 4<<30))), dev
}

// TestPooledItemsUnderFaults runs four storage workers against eight keys of
// a spilling store with a directory, with nothing ordering them: GETs, SETs
// (a string naming the key, or a counter congruent to the key's index mod 8),
// CASes on a token a GET just read, increments by 8, and bursts of filler SETs
// that keep RAM full. Under them run compaction, bit rot read back as corrupt
// copies (a reader GETs every filler once half the SSD's extents have rotted)
// and evacuated by a scrub pass whose corrupt hook suspends, as a repair-pull
// does, and one cold restart: the workers pause between two
// commands — inside an open coalescing window — the windows are torn down,
// the directory quiesced, and the store recovered from the SSD and
// republished. Evictions go through the write-behind flusher in one run and
// through the workers' coalescing windows in the other.
//
// Every answer must be a value written to its own key: an item released and
// reused under one of its holders would hand out another key's. Once the run
// is quiet, the census finds every item the manager made free, retired by
// the restart, or held by exactly the table, the manager's residency and the
// directory — nothing leaks — and each one held is its key's table entry, of
// the recovered incarnation.
func TestPooledItemsUnderFaults(t *testing.T) {
	for _, tc := range []struct {
		name       string
		asyncFlush bool
	}{
		{"write-behind", true},
		{"coalescing windows", false},
	} {
		t.Run(tc.name, func(t *testing.T) { pooledItemsUnderFaults(t, tc.asyncFlush) })
	}
}

func pooledItemsUnderFaults(t *testing.T, asyncFlush bool) {
	const (
		workers   = 4
		perWorker = 600
		big       = 32 << 10
	)
	env := sim.NewEnv()
	s, dev := spillingStore(env, asyncFlush)
	m := s.Manager()
	d := newTestDirectory(16)
	s.SetReadView(d)
	s.SetCorruptNotify(func(p *sim.Proc, _ protocol.Key) { p.Sleep(20 * sim.Microsecond) })

	const fillers = 256
	filler := func(f int) string { return fmt.Sprintf("fill-%03d", f) }
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	ofKey := func(ki int, v any) bool {
		switch v := v.(type) {
		case string:
			return strings.HasPrefix(v, keys[ki]+"/")
		case uint64:
			return v%8 == uint64(ki)
		}
		return false
	}
	answered := map[protocol.Status]int{}
	answer := func(what string, ki int, st protocol.Status, v any, hasValue bool) {
		answered[st]++
		switch st {
		case protocol.StatusOK, protocol.StatusStored:
			if hasValue && !ofKey(ki, v) {
				t.Errorf("%s %s answered %v: not a value written to it", what, keys[ki], v)
			}
		case protocol.StatusNotFound, protocol.StatusCorrupt, protocol.StatusRecovering,
			protocol.StatusNotStored, protocol.StatusExists, protocol.StatusBadValue:
		default:
			t.Errorf("%s %s answered %v", what, keys[ki], st)
		}
	}

	// The pause: the restart waits until every worker sits between two
	// commands, at the barrier.
	paused, idle, resume := false, 0, env.NewEvent()
	barrier := func(p *sim.Proc) {
		for paused {
			idle++
			p.Wait(resume)
			idle--
		}
	}
	ops, quarter, half, done := 0, env.NewEvent(), env.NewEvent(), 0
	rng := rand.New(rand.NewSource(45))
	var ds []sim.Driver
	for w := 0; w < workers; w++ {
		ds = append(ds, sim.Driver{Name: "worker", Fn: func(p *sim.Proc) {
			defer func() { done++ }()
			for i := 0; i < perWorker; i += 4 {
				m.BeginEvictionBatch(p)
				for j := i; j < i+4; j++ {
					barrier(p)
					switch ops++; ops {
					case workers * perWorker / 4:
						quarter.Fire()
					case workers * perWorker / 2:
						half.Fire()
					}
					ki := rng.Intn(len(keys))
					key := keys[ki]
					switch op := rng.Intn(10); {
					case op < 3:
						for range 32 {
							f := rng.Intn(fillers)
							s.Set(p, filler(f), big, f, 0, 0)
						}
					case op < 5:
						v, _, _, _, st := s.Get(p, key)
						answer("GET", ki, st, v, true)
					case op < 6:
						answer("SET", ki, s.Set(p, key, big, fmt.Sprintf("%s/%d.%d", key, w, j), 0, 0), nil, false)
					case op < 7:
						answer("SET", ki, s.Set(p, key, big, uint64(ki+8*j), 0, 0), nil, false)
					case op < 8:
						_, _, _, cas, _ := s.Get(p, key)
						answer("CAS", ki, s.CompareAndSet(p, protocol.KeyOf(key), big, fmt.Sprintf("%s/cas%d.%d", key, w, j), 0, cas), nil, false)
					default:
						next, st := s.Incr(p, protocol.KeyOf(key), 8)
						answer("INCR", ki, st, next, true)
					}
					p.Sleep(sim.Time(rng.Intn(2000)) * sim.Nanosecond)
				}
				m.EndEvictionBatch(p)
			}
		}})
	}
	running := func() bool { return done < workers }
	ds = append(ds, sim.Driver{Name: "compactor", Fn: func(p *sim.Proc) {
		for running() {
			p.Sleep(100 * sim.Millisecond)
			m.Compact(p, 0.25)
		}
	}})
	// Half the extents on the SSD rot within a millisecond; then a reader
	// GETs every filler, so corrupt copies are met and their regions
	// quarantined with clean slots still in them, for the scrub to move.
	ds = append(ds, sim.Driver{Name: "rot", Fn: func(p *sim.Proc) {
		p.Wait(quarter)
		dev.AddBitRot(45, p.Now(), p.Now()+sim.Millisecond, 0.5)
		p.Sleep(sim.Millisecond)
		for f := 0; f < fillers; f++ {
			v, _, _, _, st := s.Get(p, filler(f))
			answered[st]++
			if st == protocol.StatusOK && v != f {
				t.Errorf("GET %s answered %v", filler(f), v)
			}
		}
	}}, sim.Driver{Name: "scrubber", Fn: func(p *sim.Proc) {
		for running() {
			p.Sleep(3 * sim.Millisecond)
			s.EvacuateQuarantined(p)
			m.ReclaimQuarantined()
		}
	}})
	var recovered int64
	sim.DriveUntil(t, env, -1, append(ds, sim.Driver{Name: "restart", Fn: func(p *sim.Proc) {
		p.Wait(half)
		paused = true
		for idle < workers {
			p.Sleep(sim.Microsecond)
		}
		m.AbortEvictionBatches()
		d.Quiesce()
		recovered = s.RecoverCold(p).ItemsRecovered
		s.PublishAll()
		paused = false
		resume.Fire()
	}})...)

	if m.Retired() == 0 {
		t.Fatal("the cold restart retired no item")
	}
	if err := pool.Census(s.Census()).Err(); err != nil {
		t.Error(err)
	}
	t.Logf("at %v: ssd loads %d; answers %v; recovered %d, corrupt loads %d, evacuated %d, compactions %d; items made %d, %d of them retired by the restart",
		env.Now(), m.SSDLoads, answered, recovered, m.CorruptLoads, m.QuarantineEvacuated, m.Compactions, m.Items.Made, m.Retired())
	for what, n := range map[string]int64{
		"GET hits":        int64(answered[protocol.StatusOK]),
		"corrupt answers": int64(answered[protocol.StatusCorrupt]),
		"recovered items": recovered,
		"evacuated slots": m.QuarantineEvacuated,
		"compactions":     m.Compactions,
		"items made":      int64(m.Items.Made),
		"items reused":    s.SetOps - int64(m.Items.Made),
		"SSD loads":       m.SSDLoads,
		"pages flushed":   m.FlushPages,
	} {
		if n <= 0 {
			t.Errorf("the run had no %s: it proves nothing", what)
		}
	}
}

// TestItemOutlivesOverwritesDuringSSDLoad parks each reader that loads an
// item — a GET, the repair path's ReadItem, an increment's read — in the SSD
// read of its key's item while a second process overwrites the key three
// times, storing two other keys in between. Each overwrite releases the item
// it replaces; the one the reader is loading stays held by the reader, so it
// is handed out to none of those stores, and the reader, finding its item
// replaced, answers for the key's newest value or not at all, never with
// another key's. Once the reader lets go, that item is the next one handed
// out.
func TestItemOutlivesOverwritesDuringSSDLoad(t *testing.T) {
	overwrites := []struct {
		key string
		v   uint64
	}{{"k", 8}, {"x", 1001}, {"k", 16}, {"y", 2002}, {"k", 24}}
	for _, tc := range []struct {
		name string
		// read answers v, or ok false when it gave no value.
		read func(s *Store, p *sim.Proc) (v any, ok bool)
		want any
	}{
		{"GET", func(s *Store, p *sim.Proc) (any, bool) {
			v, _, _, _, st := s.Get(p, "k")
			return v, st == protocol.StatusOK
		}, uint64(24)},
		{"ReadItem", func(s *Store, p *sim.Proc) (any, bool) {
			v, _, _, ok := s.ReadItem(p, protocol.KeyOf("k"))
			return v, ok
		}, nil},
		{"INCR", func(s *Store, p *sim.Proc) (any, bool) {
			v, st := s.Incr(p, protocol.KeyOf("k"), 1)
			return v, st == protocol.StatusOK
		}, uint64(25)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewEnv()
			s, _ := spillingStore(env, false)
			sim.Drive(t, env, "fixture", func(p *sim.Proc) {
				// Stored at the fillers' size, first: the oldest of its class.
				s.Set(p, "k", 32<<10, uint64(0), 0, 0)
				for i := 0; s.item(protocol.KeyOf("k")).InPlace(); i++ {
					s.Set(p, fmt.Sprintf("fill-%03d", i), 32<<10, i, 0, 0)
				}
				for i := 0; i < 256; i++ {
					s.DeleteIf(p, protocol.KeyOf(fmt.Sprintf("fill-%03d", i)), nil) // room in RAM for the overwrites
				}
			})
			first := s.item(protocol.KeyOf("k"))
			if first == nil || !first.OnSSD() {
				t.Fatal("fixture: k is not on the SSD")
			}

			var v any
			var ok bool
			var answered, overwritten sim.Time
			sim.DriveUntil(t, env, -1,
				sim.Driver{Name: "reader", Fn: func(p *sim.Proc) {
					v, ok = tc.read(s, p)
					answered = p.Now()
				}},
				sim.Driver{Name: "overwrite", Fn: func(p *sim.Proc) {
					for _, o := range overwrites {
						s.Set(p, o.key, 64, o.v, 0, 0)
						if s.item(protocol.KeyOf(o.key)) == first {
							t.Errorf("the item the reader is loading was handed out to %s=%d", o.key, o.v)
						}
					}
					overwritten = p.Now()
				}})
			if overwritten >= answered {
				t.Fatalf("the overwrites ended at %v, after the reader answered at %v: it was never parked under them", overwritten, answered)
			}
			if tc.want == nil && ok || tc.want != nil && (!ok || v != tc.want) {
				t.Errorf("%s of k answered %v (ok %v), want %v", tc.name, v, ok, tc.want)
			}
			sim.Drive(t, env, "after", func(p *sim.Proc) { s.Set(p, "z", 64, uint64(3003), 0, 0) })
			if s.item(protocol.KeyOf("z")) != first {
				t.Error("the released item was not the next one handed out once the reader let go")
			}
		})
	}
}

// TestSetHoldsItsItemUntilTheSwap runs two SETs on a RAM-only store of one
// slab page, full but for one chunk. The first SET's item takes that chunk and
// is resident from the end of its Store; the second one's allocation falls in
// the first's cache-update window, finds no room, and evicts the whole page —
// the first SET's item with it — before the first SET swaps the item in. The
// first SET still holds the item, so its eviction does not put it back on the
// free list under the swap: the swap installs the dropped item, and a GET of
// the key misses, as it would have had the eviction come a moment later.
func TestSetHoldsItsItemUntilTheSwap(t *testing.T) {
	const size = 32 << 10
	room := 0 // items the page holds
	{
		env := sim.NewEnv()
		s := newStore(env, 1<<20, false)
		sim.Drive(t, env, "measure", func(p *sim.Proc) {
			for ; s.mgr.DropEvictions == 0; room++ {
				s.Set(p, fmt.Sprintf("fill-%03d", room), size, room, 0, 0)
			}
			room--
		})
	}
	env := sim.NewEnv()
	s := newStore(env, 1<<20, false)
	sim.Drive(t, env, "fill", func(p *sim.Proc) {
		for i := 0; i < room-1; i++ {
			s.Set(p, fmt.Sprintf("fill-%03d", i), size, i, 0, 0)
		}
	})
	sim.DriveUntil(t, env, -1,
		sim.Driver{Name: "first", Fn: func(p *sim.Proc) { s.Set(p, "first", size, "v", 0, 0) }},
		sim.Driver{Name: "second", Fn: func(p *sim.Proc) {
			// The first SET's item is pushed after its hash, slab bookkeeping and
			// copy; its swap comes updateCost later. This SET allocates after the
			// same hash and bookkeeping: start it half a window after the copy.
			p.Sleep(sim.TransferTime(size, sim.MemcpyBps) + updateCost/2)
			s.Set(p, "second", size, "v", 0, 0)
		}})
	it := s.item(protocol.KeyOf("first"))
	if it == nil || !it.Dropped() || s.mgr.DropEvictions != int64(room) {
		t.Fatalf("fixture: the second SET did not evict the first one's item before its swap (dropped %v, %d evictions of %d)",
			it != nil && it.Dropped(), s.mgr.DropEvictions, room)
	}
	sim.Drive(t, env, "get", func(p *sim.Proc) {
		if _, _, _, _, st := s.Get(p, "first"); st != protocol.StatusNotFound {
			t.Errorf("GET of the evicted key answered %v", st)
		}
	})
}

// TestEvacuationHoldsItsCorruptItems rots a region of the SSD holding keys a
// and b, and has a GET of a third key in it quarantine the region. The scrub's
// evacuation finds every slot corrupt and hands the items back; tearing down
// the first one's entry suspends in the corrupt hook, as a repair-pull does,
// and meanwhile the other of a and b is stored twice. The evacuation still
// holds the item the first store releases, so the second store gets another
// one, and when the loop reaches it the key's table entry is not it: the
// fresh value is left alone, where an item reused for the same key would have
// been torn down as the corrupt one.
func TestEvacuationHoldsItsCorruptItems(t *testing.T) {
	env := sim.NewEnv()
	s, dev := spillingStore(env, false)
	sim.Drive(t, env, "fixture", func(p *sim.Proc) {
		for _, key := range []string{"a", "b", "c"} {
			s.Set(p, key, 32<<10, key+"/0", 0, 0) // the oldest: evicted together
		}
		for i := 0; s.item(protocol.KeyOf("c")).InPlace(); i++ {
			s.Set(p, fmt.Sprintf("fill-%03d", i), 32<<10, i, 0, 0)
		}
		dev.AddBitRot(7, p.Now(), p.Now()+sim.Millisecond, 1.0)
		p.Sleep(2 * sim.Millisecond)
		if _, _, _, _, st := s.Get(p, "c"); st != protocol.StatusCorrupt {
			t.Fatalf("fixture: GET of a rotted key answered %v", st)
		}
	})
	target := ""
	s.SetCorruptNotify(func(p *sim.Proc, k protocol.Key) {
		key := k.Str
		if target == "" {
			target = "a"
			if key == "a" {
				target = "b"
			}
			env.Spawn("overwrite", func(p *sim.Proc) {
				s.Set(p, target, 64, target+"/1", 0, 0)
				s.Set(p, target, 64, target+"/2", 0, 0)
			})
		}
		p.Sleep(100 * sim.Millisecond)
	})
	sim.Drive(t, env, "scrub", func(p *sim.Proc) { s.EvacuateQuarantined(p) })
	if target == "" {
		t.Fatal("fixture: the evacuation found nothing corrupt")
	}
	sim.Drive(t, env, "get", func(p *sim.Proc) {
		if v, _, _, _, st := s.Get(p, target); st != protocol.StatusOK || v != target+"/2" {
			t.Errorf("GET %s after the evacuation answered %v %v, want OK %s/2", target, st, v, target)
		}
	})
}

// TestCensusNamesAStaleHolder checks the census's rule beside the hold
// counts: an item held by a walked holder that is not its key's table entry
// is named, though its holds match the holders the walk found. Here the table
// and residency let go of the item and the directory entry does not.
func TestCensusNamesAStaleHolder(t *testing.T) {
	env := sim.NewEnv()
	s, _ := spillingStore(env, false)
	s.SetReadView(newTestDirectory(16))
	sim.Drive(t, env, "set", func(p *sim.Proc) { s.Set(p, "k", 64, "v", 0, 0) })
	if err := pool.Census(s.Census()).Err(); err != nil {
		t.Fatalf("a stored key: %v", err)
	}
	it := s.item(protocol.KeyOf("k"))
	s.mgr.Release(it) // the residency's hold
	it.Unhold()       // the table's
	s.table.Delete(protocol.KeyOf("k"))
	err := pool.Census(s.Census()).Err()
	if want := `items: item "k": held, and not its key's table entry`; err == nil || err.Error() != "pool census: "+want {
		t.Errorf("census: %v\nwant only %q", err, want)
	}
}

// TestCensusNamesAWrongCarriedHash checks the carried-hash rule at the
// store's boundary: a key stored under a hash that is not FNV1a of its string
// is filed where no probe by its real hash looks, and the census names its
// item, whose holds are all in order.
func TestCensusNamesAWrongCarriedHash(t *testing.T) {
	env := sim.NewEnv()
	s, _ := spillingStore(env, false)
	sim.Drive(t, env, "set", func(p *sim.Proc) {
		s.Set(p, "k", 64, "v", 0, 0)
		s.SetIf(p, protocol.Key{Hash: protocol.FNV1a("k") ^ 1, Str: "j"}, 64, "w", 0, nil)
	})
	err := pool.Census(s.Census()).Err()
	if want := `items: item "j": filed under a hash that is not its key's`; err == nil || err.Error() != "pool census: "+want {
		t.Errorf("census: %v\nwant only %q", err, want)
	}
}
