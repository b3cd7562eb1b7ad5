package store

import (
	"fmt"
	"testing"

	"hybridkv/internal/blockdev"
	"hybridkv/internal/hybridslab"
	"hybridkv/internal/pagecache"
	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
	"hybridkv/internal/slab"
)

// A read-modify-write whose load fails verification answers as a GET does
// (loadFailed): StatusCorrupt, counted, the corrupt hook fired, the dead entry
// gone — so a replicated server repair-pulls the key and re-runs the command,
// instead of deciding it on a miss the peers would contradict.
func TestReadModifyWriteOfARottedCopyAnswersCorrupt(t *testing.T) {
	for _, tc := range []struct {
		name  string
		value any
		run   func(s *Store, p *sim.Proc) protocol.Status
	}{
		{"incr", uint64(41), func(s *Store, p *sim.Proc) protocol.Status { _, st := s.Incr(p, "k", 1); return st }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewEnv()
			dev := blockdev.New(env, blockdev.SATA(), 8<<30)
			cache := pagecache.New(env, dev, pagecache.DefaultParams())
			// Direct I/O: every SSD load comes off the media, where rot lives.
			s := New(env, hybridslab.New(env, hybridslab.Config{
				Slab:   slab.Config{MemLimit: 4 << 20},
				Policy: hybridslab.PolicyDirect,
			}, cache.OpenFile(0, 4<<30)))
			hooked := map[string]int{}
			s.SetCorruptNotify(func(_ *sim.Proc, k protocol.Key) { hooked[k.Str]++ })
			var st protocol.Status
			sim.Drive(t, env, "op", func(p *sim.Proc) {
				// Stored at the fillers' size so the fillers evict it.
				s.Set(p, "k", 32*1024, tc.value, 0, 0)
				for i := 0; i < 200; i++ {
					s.Set(p, fmt.Sprintf("fill%04d", i), 32*1024, i, 0, 0)
				}
				if !s.item(protocol.KeyOf("k")).OnSSD() {
					t.Fatal("fixture: the key is not on the SSD")
				}
				dev.AddBitRot(17, p.Now(), p.Now()+sim.Millisecond, 1.0)
				p.Sleep(2 * sim.Millisecond) // past every extent's rot instant
				st = tc.run(s, p)
			})
			if st != protocol.StatusCorrupt {
				t.Errorf("%s of a rotted copy answered %v, want %v", tc.name, st, protocol.StatusCorrupt)
			}
			if s.CorruptReads != 1 {
				t.Errorf("CorruptReads = %d, want 1", s.CorruptReads)
			}
			if len(hooked) != 1 || hooked["k"] != 1 {
				t.Errorf("the corrupt hook fired %v, want once for k", hooked)
			}
			if ok := s.item(protocol.KeyOf("k")) != nil; ok {
				t.Error("the rotted key is still in the table")
			}
		})
	}
}
