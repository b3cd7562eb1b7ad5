package hybridslab

import (
	"fmt"
	"testing"

	"hybridkv/internal/blockdev"
	"hybridkv/internal/pagecache"
	"hybridkv/internal/sim"
	"hybridkv/internal/slab"
)

// horizonRun is one run of the dirty-horizon rig: 32 KB items (a cached-I/O
// class under PolicyAdaptive) stored into 4 MB of RAM over a cache whose
// dirty limit is 8 MB and whose flusher wakes above 4 MB, so the first
// regions stay dirty until later ones push them out. Once the SSD holds its
// first region the run picks a victim there and keeps storing until at least
// later bytes of region writes have landed since that region did. Then, in one instant, it
// frees two RAM chunks, releases the victim if release is set, and times the
// next two Stores (neither evicts); last, it drains the cache.
type horizonRun struct {
	store1, store2 sim.Time
	written        int64 // device bytes written, drain included
	punched        int64 // the cache's PunchedPages
	slotPages      int64 // pages wholly inside the victim's slot
	victimOff      int64
	file           *pagecache.File
	m              *Manager
}

func runHorizon(t *testing.T, policy IOPolicy, later int64, release bool) horizonRun {
	t.Helper()
	env := sim.NewEnv()
	dev := blockdev.New(env, blockdev.SATA(), 8<<30)
	par := pagecache.DefaultParams()
	par.DirtyHighPages, par.ThrottlePages = 1024, 2048
	c := pagecache.New(env, dev, par)
	f := c.OpenFile(0, 4<<30)
	m := New(env, Config{Slab: slab.Config{MemLimit: 4 << 20}, Policy: policy}, f)
	r := horizonRun{file: f, m: m}
	const size = 32 * 1024
	next := 0
	store := func(p *sim.Proc) *Item {
		it := &Item{Key: fmt.Sprintf("key-%06d", next), Value: next, ValueSize: size}
		next++
		if err := m.Store(p, it); err != nil {
			t.Fatalf("store %s: %v", it.Key, err)
		}
		return it
	}
	sim.Drive(t, env, "fill", func(p *sim.Proc) {
		var recent [2]*Item
		for m.SSDItems() == 0 {
			recent[0], recent[1] = recent[1], store(p)
		}
		victim := m.ssdLRU.Back().Value
		for m.written-victim.ssdPage.landed < later {
			recent[0], recent[1] = recent[1], store(p)
		}
		ps := int64(par.PageSize)
		r.victimOff = victim.ssdOff
		r.slotPages = (victim.ssdOff+int64(m.alloc.ChunkSize(int(victim.class))))/ps - (victim.ssdOff+ps-1)/ps
		for _, it := range recent {
			if it.OnSSD() {
				t.Fatalf("item %s stored last is on the SSD", it.Key)
			}
			m.Release(it)
		}
		if release {
			m.Release(victim)
		}
		t0 := p.Now()
		store(p)
		r.store1 = p.Now() - t0
		t0 = p.Now()
		store(p)
		r.store2 = p.Now() - t0
	})
	for c.Dirty() > 0 {
		c.Kick()
		env.Run() // no driver: the writeback the Kick starts is all that runs
	}
	r.written, r.punched = dev.BytesWrite, c.PunchedPages
	return r
}

// TestDirtyHorizonPunch releases one SSD-resident item and compares the run
// with its twin that does not. A slot whose region landed within the
// cache's dirty limit is punched: its interior pages never reach the device,
// and the next Store — not the release — pays exactly one SyscallCost. A
// slot whose region landed at least DirtyLimit bytes of region writes ago is
// only discarded and costs nothing, and so is every slot of a PolicyDirect
// manager, whose run is the twin's to the nanosecond.
func TestDirtyHorizonPunch(t *testing.T) {
	limit := pagecache.Params{PageSize: 4096, ThrottlePages: 2048}.DirtyLimit()
	for _, tc := range []struct {
		name   string
		policy IOPolicy
		later  int64
		punch  bool
	}{
		{"adaptive, just landed", PolicyAdaptive, 0, true},
		{"adaptive, past the dirty limit", PolicyAdaptive, limit, false},
		{"direct", PolicyDirect, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			kept := runHorizon(t, tc.policy, tc.later, false)
			freed := runHorizon(t, tc.policy, tc.later, true)
			if _, ok := freed.file.Peek(freed.victimOff); ok {
				t.Errorf("the released slot at %d is still readable", freed.victimOff)
			}
			if freed.m.punches != 0 {
				t.Errorf("%d punches still owed after two Stores", freed.m.punches)
			}
			if kept.store2 != freed.store2 {
				t.Errorf("second Store took %v after the release, %v without it; want the same", freed.store2, kept.store2)
			}
			if !tc.punch {
				if freed.punched != 0 || freed.store1 != kept.store1 || freed.written != kept.written {
					t.Errorf("a discard: %d pages punched (want 0); next Store %v against %v, %d device bytes against %d (want equal)",
						freed.punched, freed.store1, kept.store1, freed.written, kept.written)
				}
				return
			}
			if freed.slotPages <= 0 || freed.punched != freed.slotPages {
				t.Errorf("%d pages punched, want the %d wholly inside the slot (and some)", freed.punched, freed.slotPages)
			}
			if got := kept.written - freed.written; got != freed.slotPages*4096 {
				t.Errorf("the release saved %d device bytes, want the slot's %d interior pages, %d", got, freed.slotPages, freed.slotPages*4096)
			}
			if got := freed.store1 - kept.store1; got != pagecache.SyscallCost {
				t.Errorf("the next Store paid %v more after the release, want one SyscallCost (%v)", got, pagecache.SyscallCost)
			}
		})
	}
}
