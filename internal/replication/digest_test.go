package replication_test

import (
	"math/rand"
	"testing"

	"hybridkv/internal/metrics"
	"hybridkv/internal/protocol"
	"hybridkv/internal/server"
	"hybridkv/internal/sim"
)

// The scrub digests are maintained incrementally — every change of a key's
// record moves its entry in the digest of each peer sharing the key — and a
// maintained digest that drifts from the truth would make two diverged
// replicas look converged, or two converged ones reconcile forever. So after
// every phase of a seeded random mix of writes, suspect marks
// (corrupt reads, a cold restart), the repairs those trigger, and a
// membership change, each maintained digest must equal a from-scratch fold
// over the key table, on every replicator, for every peer.
func TestMaintainedDigestsMatchRecompute(t *testing.T) {
	cl := itCluster()
	c := cl.Clients[0]
	rng := rand.New(rand.NewSource(42))
	compared := 0
	check := func(phase string) {
		t.Helper()
		for sid, r := range cl.Replicators {
			stale, maintained := r.StaleDigestsForTest()
			compared += maintained
			for _, pid := range stale {
				t.Errorf("after %s: replicator %d's maintained digest for peer %d differs from a recompute", phase, sid, pid)
			}
		}
	}
	mix := func(p *sim.Proc, ops int) {
		for i := 0; i < ops; i++ {
			key := itKey(rng.Intn(itKeys))
			switch rng.Intn(5) {
			case 0:
				// A corrupt local read somewhere: the key turns suspect there
				// and leaves that node's digests until a peer's push repairs it.
				cl.Replicators[rng.Intn(len(cl.Replicators))].OnCorrupt(p, protocol.KeyOf(key))
			case 1:
				// Silent corruption: same epoch, different content sum.
				cl.Replicators[rng.Intn(len(cl.Replicators))].SilentlyCorruptForTest(key, rng.Uint64())
			default:
				c.Set(p, key, itValue, rng.Uint64(), 0, 0)
			}
			if i%16 == 15 {
				p.Sleep(3 * sim.Millisecond) // let a scrub round see the table mid-churn
				check("a burst of the mix")
			}
		}
		p.Sleep(40 * sim.Millisecond) // repairs settle
	}
	sim.Drive(t, cl.Env, "it-digests", func(p *sim.Proc) {
		mix(p, 96)
		check("writes, deletes and suspect marks")

		// Every key the node recovers comes back suspect.
		cl.Servers[1].Outage(p, server.KillRAM, 300*sim.Microsecond)
		mix(p, 64)
		check("a cold restart and its repairs")

		_, done := cl.Join()
		check("a membership change began")
		mix(p, 64) // writes land on the union of both rings mid-migration
		p.Wait(done)
		check("the membership change finalized")
		mix(p, 64)
		check("writes under the new ring")
	})
	if compared < 50 {
		t.Fatalf("only %d maintained digests were ever compared: the scrubber is not using them", compared)
	}
	if total := cl.ReplicationCounters(); total.Val(metrics.CRepairPushes) == 0 {
		t.Error("the mix triggered no repair")
	}
}
