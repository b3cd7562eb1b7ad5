package hybridslab

import (
	"testing"

	"hybridkv/internal/blockdev"
	"hybridkv/internal/pagecache"
	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
	"hybridkv/internal/slab"
)

// rotFixture builds a hybrid manager over an exposed device and overcommits
// it so a prefix of the items live on the SSD.
func rotFixture(t *testing.T, noVerify bool) (*sim.Env, *Manager, *blockdev.Device, []*Item) {
	t.Helper()
	env := sim.NewEnv()
	dev := blockdev.New(env, blockdev.SATA(), 8<<30)
	cache := pagecache.New(env, dev, pagecache.DefaultParams())
	m := New(env, Config{
		Slab:     slab.Config{MemLimit: 4 << 20},
		Policy:   PolicyDirect,
		NoVerify: noVerify,
	}, cache.OpenFile(0, 4<<30))
	const n = 300
	items := make([]*Item, n)
	env.Spawn("load", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			items[i] = item(i, 32*1024)
			m.Store(p, items[i])
		}
	})
	env.Run()
	if !items[0].OnSSD() {
		t.Fatal("fixture: oldest item not on SSD")
	}
	return env, m, dev, items
}

// A rotted SSD read with verification on returns typed ErrCorrupt, retires
// the item, and quarantines the region; the quarantined region never
// returns to the free pool until ReclaimQuarantined — and that only
// releases it once its last live slot is freed.
func TestRottedLoadQuarantinesRegion(t *testing.T) {
	env, m, dev, items := rotFixture(t, false)
	// Rot everything durable from now on; reads 2ms later all bite.
	dev.AddBitRot(17, env.Now(), env.Now()+sim.Millisecond, 1.0)
	victim := items[0]
	var err error
	env.Spawn("get", func(p *sim.Proc) {
		p.Sleep(2 * sim.Millisecond)
		_, err = m.Load(p, victim)
	})
	env.Run()
	if err != ErrCorrupt {
		t.Fatalf("rotted load err = %v, want ErrCorrupt", err)
	}
	if !victim.Dropped() {
		t.Error("corrupt item not retired")
	}
	if m.QuarantinedPages != 1 || len(m.quarantine) != 1 {
		t.Fatalf("QuarantinedPages=%d held=%d, want 1/1", m.QuarantinedPages, len(m.quarantine))
	}
	if m.CorruptLoads != 1 {
		t.Errorf("CorruptLoads = %d, want 1", m.CorruptLoads)
	}
	// The region still holds live slots: reclaim must keep it out of the
	// pool (fresh data must never land on unscrubbed suspect media).
	if n := m.ReclaimQuarantined(); n != 0 {
		t.Fatalf("ReclaimQuarantined released %d regions while slots were live", n)
	}
	if len(m.quarantine) != 1 {
		t.Error("live-slot region left quarantine early")
	}
	// Free every remaining SSD slot, then reclaim: the region returns to
	// the pool and the arena accounting closes to zero.
	for _, it := range items {
		if it.OnSSD() {
			m.Release(it)
		}
	}
	if m.SSDUsed() == 0 {
		t.Error("quarantined region's bytes reclaimed before the scrub pass")
	}
	if n := m.ReclaimQuarantined(); n != 1 {
		t.Fatalf("ReclaimQuarantined = %d after the last slot freed, want 1", n)
	}
	if len(m.quarantine) != 0 || m.QuarantineReclaims != 1 {
		t.Errorf("held=%d reclaims=%d after reclaim", len(m.quarantine), m.QuarantineReclaims)
	}
	if m.SSDUsed() != 0 {
		t.Errorf("SSDUsed = %d after releasing and reclaiming everything", m.SSDUsed())
	}
}

// With NoVerify (the nodefense baseline) the same rotted read surfaces a
// Garbled value with no error — the silent-corruption failure mode the
// bitrot experiment's nodefense cells exist to measure.
func TestNoVerifyServesGarbledValue(t *testing.T) {
	env, m, dev, items := rotFixture(t, true)
	dev.AddBitRot(17, env.Now(), env.Now()+sim.Millisecond, 1.0)
	var v any
	var err error
	env.Spawn("get", func(p *sim.Proc) {
		p.Sleep(2 * sim.Millisecond)
		v, err = m.Load(p, items[0])
	})
	env.Run()
	if err != nil {
		t.Fatalf("nodefense load err = %v, want nil (garbage, not failure)", err)
	}
	if v != (protocol.Garbled{Inner: 0}) {
		t.Errorf("nodefense load returned %v, want the garbled original", v)
	}
	if m.QuarantinedPages != 0 || items[0].Dropped() {
		t.Error("nodefense path quarantined or retired the item")
	}
}

// verifySlot is the catch-all behind the Rotted fast path: a slot whose
// record no longer matches the page header's key digest (a misdirected or
// partially-applied write rather than clean rot) fails verification too.
func TestVerifySlotCatchesRecordMismatch(t *testing.T) {
	env, m, _, items := rotFixture(t, false)
	victim := items[0]
	chunk := m.alloc.ChunkSize(victim.class)
	// Swap in a record for a different key at the victim's slot: the header
	// digest for this slot no longer matches.
	m.file.SetExtent(victim.ssdOff, chunk, &itemRecord{
		Key: "not-the-key", Value: 999, ValueSize: victim.ValueSize,
	})
	var err error
	env.Spawn("get", func(p *sim.Proc) { _, err = m.Load(p, victim) })
	env.Run()
	if err != ErrCorrupt {
		t.Fatalf("mismatched-record load err = %v, want ErrCorrupt", err)
	}
	if m.QuarantinedPages != 1 {
		t.Errorf("QuarantinedPages = %d, want 1", m.QuarantinedPages)
	}
	// A healthy sibling on another region still loads clean.
	var v any
	env.Spawn("get2", func(p *sim.Proc) { v, err = m.Load(p, items[40]) })
	env.Run()
	if err != nil || v != 40 {
		t.Errorf("healthy item load = (%v, %v)", v, err)
	}
}

// The scrub pass over quarantined media: partial rot quarantines a region
// whose other slots are still live. EvacuateQuarantined must re-read each
// live slot, move the clean ones onto a fresh region, retire the rotted
// ones for replica repair, and leave the drained region fully dead — so
// ReclaimQuarantined can finally return it to the pool.
func TestEvacuateQuarantinedMovesCleanRetiresRotten(t *testing.T) {
	env, m, dev, items := rotFixture(t, false)
	// Half the extents rot (deterministically by offset); the window closes
	// before the evacuation runs, so regions the evacuation writes are
	// post-rot and read clean.
	dev.AddBitRot(17, env.Now(), env.Now()+sim.Millisecond, 0.5)

	var pg *ssdPage
	var moved int
	var corrupt []*Item
	var reclaimed int
	env.Spawn("scrub", func(p *sim.Proc) {
		p.Sleep(2 * sim.Millisecond)
		// Find a rotted slot the foreground path quarantines.
		for _, it := range items {
			if !it.OnSSD() {
				continue
			}
			if _, err := m.Load(p, it); err == ErrCorrupt {
				break
			}
		}
		if len(m.quarantine) == 0 {
			t.Error("no load ever hit rot at rate 0.5; fixture is broken")
			return
		}
		pg = m.quarantine[0]
		var siblings []*Item
		for _, it := range items {
			if it.ssdPage == pg && !it.dropped {
				siblings = append(siblings, it)
			}
		}
		if len(siblings) == 0 {
			t.Error("quarantined region holds no live siblings; nothing to evacuate")
			return
		}
		moved, corrupt = m.EvacuateQuarantined(p)
		if moved+len(corrupt) < len(siblings) {
			t.Errorf("evacuation covered %d+%d slots, want at least the %d live siblings",
				moved, len(corrupt), len(siblings))
		}
		reclaimed = m.ReclaimQuarantined()
		// Every surviving sibling sits on fresh, post-rot media and loads
		// clean; every retired one is dropped and reported for repair.
		retired := map[*Item]bool{}
		for _, it := range corrupt {
			retired[it] = true
			if !it.Dropped() {
				t.Error("retired item not dropped")
			}
		}
		for _, it := range siblings {
			if retired[it] {
				continue
			}
			if !it.OnSSD() || it.ssdPage == pg {
				t.Error("moved item still points at the quarantined region")
				continue
			}
			if v, err := m.Load(p, it); err != nil {
				t.Errorf("moved item fails to load after evacuation: %v", err)
			} else if g, bad := v.(protocol.Garbled); bad {
				t.Errorf("moved item reads garbled (%v) off supposedly fresh media", g)
			}
		}
	})
	env.Run()

	if moved == 0 || len(corrupt) == 0 {
		t.Fatalf("moved=%d corrupt=%d: rate 0.5 should split the region's slots both ways", moved, len(corrupt))
	}
	if m.QuarantineEvacuated != int64(moved) {
		t.Errorf("QuarantineEvacuated = %d, want %d", m.QuarantineEvacuated, moved)
	}
	if reclaimed == 0 {
		t.Error("drained region never reclaimed: evacuation left live slots behind")
	}
	if pg.quarantined {
		t.Error("drained region still flagged quarantined after reclaim")
	}
}
