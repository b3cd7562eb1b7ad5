package cluster

import (
	"fmt"
	"testing"

	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
)

// TestCorruptStatusNeverReachesTheWire rots every SSD extent of an
// unreplicated hybrid server and reads the whole key space back through the
// blocking client API. protocol.StatusCorrupt is a server-internal signal:
// with no replica to repair from, a quarantined value must read as a plain
// miss on every design — sync, async, and whatever the pipeline — never as a
// status the client can only map to ErrServer.
func TestCorruptStatusNeverReachesTheWire(t *testing.T) {
	const keys, valueSize = 512, 32 << 10 // 16 MB of values into 4 MB of slab
	key := func(i int) string { return fmt.Sprintf("rot:%04d", i) }
	for _, d := range []Design{HRDMADef, HRDMAOptBlock, HRDMAOptNonBI} {
		t.Run(d.String(), func(t *testing.T) {
			// Shrink the page cache (New floors it at half the slab budget,
			// 2 MB here): the 12 MB of spilled values must come off the media,
			// which is where at-rest rot lives.
			prof := ClusterA()
			prof.PageCache.MaxPages = 256
			prof.PageCache.DirtyHighPages = 64
			prof.PageCache.ThrottlePages = 128
			cl := New(Config{Design: d, Profile: prof, ServerMem: 4 << 20})
			cl.Preload(keys, valueSize, key)
			now := cl.Env.Now()
			cl.Devices[0].AddBitRot(17, now, now+sim.Millisecond, 1.0)
			seen := map[protocol.Status]int{}
			sim.Drive(t, cl.Env, "reader", func(p *sim.Proc) {
				p.Sleep(2 * sim.Millisecond) // past every extent's rot instant
				for i := 0; i < keys; i++ {
					_, _, st := cl.Clients[0].Get(p, key(i))
					seen[st]++
				}
			})
			if n := cl.Servers[0].Store().CorruptReads; n == 0 {
				t.Fatalf("no read hit a rotted extent (statuses %v): the test lost its teeth", seen)
			}
			if n := seen[protocol.StatusCorrupt]; n > 0 {
				t.Errorf("%d of %d GETs answered StatusCorrupt on the wire (statuses %v)", n, keys, seen)
			}
			if seen[protocol.StatusOK]+seen[protocol.StatusNotFound] != keys {
				t.Errorf("statuses %v, want only OK and NOT_FOUND", seen)
			}
		})
	}
}
