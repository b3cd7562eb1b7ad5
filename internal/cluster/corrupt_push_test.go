package cluster

import (
	"fmt"
	"testing"

	"hybridkv/internal/core"
	"hybridkv/internal/metrics"
	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
)

// TestRottedReplicaRepairsWhenAPeerPullsIt rots one replica's SSD under a key
// all three replicas hold on their SSDs, then has a second replica pull the
// key (a corrupt read there). The rotted replica meets its bad copy while
// building the repair push: the load's failure tears the entry down and
// fires the corrupt hook, as a GET's would, so it pulls the key in turn and
// installs the third replica's copy. No client reads the key, and the
// scrubber, which would find the dropped copy in a later round, is off.
func TestRottedReplicaRepairsWhenAPeerPullsIt(t *testing.T) {
	prof := ClusterA()
	prof.PageCache.MaxPages = 256
	prof.PageCache.DirtyHighPages = 64
	prof.PageCache.ThrottlePages = 128
	cl := New(Config{Design: HRDMADef, Profile: prof, Servers: 3, ServerMem: 4 << 20, ReplicationFactor: 3, NoScrub: true})
	defer cl.Env.Close()
	const key = "rotted"
	reps := cl.Membership.Ring().Replicas(protocol.KeyOf(key), 3)
	rotted, puller := reps[1], reps[2]
	c := cl.Clients[0]
	var got any
	var held bool
	var pulls int64
	sim.DriveUntil(t, cl.Env, cl.Env.Now()+sim.Second, sim.Driver{Name: "client", Fn: func(p *sim.Proc) {
		do := func(op core.Op) {
			req, _ := c.Issue(p, op)
			c.Wait(p, req)
		}
		// Stored at the fillers' size so the fillers push it to the SSD.
		do(core.Op{Code: protocol.OpSet, Key: key, ValueSize: 32 << 10, Value: "v1"})
		for i := 0; i < 400; i++ {
			do(core.Op{Code: protocol.OpSet, Key: fmt.Sprintf("fill%04d", i), ValueSize: 32 << 10, Value: i})
		}
		cl.Devices[rotted].AddBitRot(17, p.Now(), p.Now()+sim.Millisecond, 1.0)
		p.Sleep(2 * sim.Millisecond) // past every extent's rot instant
		cl.Replicators[puller].OnCorrupt(p, protocol.KeyOf(key))
		p.Sleep(5 * sim.Millisecond)
		pulls = cl.Replicators[rotted].Counters.Val(metrics.CRepairPulls)
		got, _, _, held = cl.Servers[rotted].Store().ReadItem(p, protocol.KeyOf(key))
	}})
	if pulls == 0 {
		t.Errorf("the rotted replica opened no repair pull")
	}
	if !held || got != "v1" {
		t.Errorf("the rotted replica holds (%v, %v), want the third replica's v1", got, held)
	}
	if n := cl.Servers[rotted].Store().CorruptReads; n != 0 {
		t.Errorf("the rotted replica's CorruptReads = %d, want 0: no client read the key", n)
	}
}
