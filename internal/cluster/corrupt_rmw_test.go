package cluster

import (
	"fmt"
	"testing"

	"hybridkv/internal/core"
	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
)

// TestReplicatedIncrOfARottedCopyIsRepaired rots the primary's SSD under a
// counter both replicas hold on their SSDs. The Incr's load fails
// verification on the primary; the store answers StatusCorrupt, as a GET's
// load would, so the replicator pulls the backup's copy and runs the Incr on
// it — the client sees the increment, not a miss the backup contradicts.
func TestReplicatedIncrOfARottedCopyIsRepaired(t *testing.T) {
	prof := ClusterA()
	prof.PageCache.MaxPages = 256
	prof.PageCache.DirtyHighPages = 64
	prof.PageCache.ThrottlePages = 128
	cl := New(Config{Design: HRDMADef, Profile: prof, Servers: 2, ServerMem: 4 << 20, ReplicationFactor: 2})
	defer cl.Env.Close()
	const key = "counter"
	primary := cl.Membership.Ring().Replicas(key, 2)[0]
	c := cl.Clients[0]
	var got uint64
	var err error
	cl.Env.Spawn("client", func(p *sim.Proc) {
		do := func(op core.Op) *core.Req {
			req, _ := c.Issue(p, op)
			c.Wait(p, req)
			return req
		}
		// Stored at the fillers' size so the fillers push it to the SSD.
		do(core.Op{Code: protocol.OpSet, Key: key, ValueSize: 32 << 10, Value: uint64(41)})
		for i := 0; i < 400; i++ {
			do(core.Op{Code: protocol.OpSet, Key: fmt.Sprintf("fill%04d", i), ValueSize: 32 << 10, Value: i})
		}
		cl.Devices[primary].AddBitRot(17, p.Now(), p.Now()+sim.Millisecond, 1.0)
		p.Sleep(2 * sim.Millisecond) // past every extent's rot instant
		req := do(core.Op{Code: protocol.OpIncr, Key: key, Delta: 1})
		got, _ = req.Value.(uint64)
		err = req.Err()
	})
	cl.Env.RunUntil(cl.Env.Now() + sim.Second)
	if err != nil || got != 42 {
		t.Errorf("Incr of the rotted counter -> (%d, %v), want 42", got, err)
	}
	if n := cl.Servers[primary].Store().CorruptReads; n != 1 {
		t.Errorf("the primary's CorruptReads = %d, want 1", n)
	}
}
