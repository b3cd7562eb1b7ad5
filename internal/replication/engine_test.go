package replication_test

import (
	"fmt"
	"hybridkv/internal/metrics"
	"testing"

	"hybridkv/internal/cluster"
	"hybridkv/internal/protocol"
	"hybridkv/internal/replication"
	"hybridkv/internal/sim"
)

// The engine is a communication phase: it takes a frame off the receive queue,
// hands it to a lane and goes back for the next, whatever the store is doing.
// These tests wedge store calls and watch what still gets through.

const (
	enBig   = 32 << 10
	enSmall = 64
)

// spillPair is two servers at R = 2 with 4 MB of slab each. On the direct-I/O
// design, H-RDMA-Def, an eviction is a 3 ms barrier in whichever process's
// store call triggered it.
func spillPair(design cluster.Design, clients int) *cluster.Cluster {
	return cluster.New(cluster.Config{
		Design: design, Profile: cluster.ClusterA(),
		Servers: 2, Clients: clients, ServerMem: 4 << 20, ReplicationFactor: 2,
	})
}

func enSet(key string, size int, seq uint64) *protocol.Request {
	return &protocol.Request{Op: protocol.OpSet, Key: key, ValueSize: size, Value: seq}
}

func TestEngineNeverWaitsOnTheStore(t *testing.T) {
	// Server 1's store is 60 values ahead of server 0's, so of the SETs server 0
	// coordinates the first to evict evicts on server 1 alone: in the applier
	// running the forward. 100 µs into that eviction server 1 coordinates a
	// small SET of its own, whose forward server 0 applies and acks in
	// microseconds. The ack must not wait for the eviction to end.
	t.Run("an ack passes an applier suspended in an eviction", func(t *testing.T) {
		cl := spillPair(cluster.HRDMADef, 1)
		a, b := cl.Replicators[0], cl.Replicators[1]
		var clean, wedged, inFlight, evicting sim.Time
		var status protocol.Status
		small := func(p *sim.Proc, seq uint64) (protocol.Status, sim.Time) {
			t0 := p.Now()
			return execute(p, b, enSet("en:small", enSmall, seq)).Status, p.Now() - t0
		}
		sim.DriveUntil(t, cl.Env, -1,
			sim.Driver{Name: "en-driver", Fn: func(p *sim.Proc) {
				for i := 0; i < 60; i++ {
					cl.Servers[1].Store().Set(p, fmt.Sprintf("en:fill:%03d", i), enBig, i, 0, 0)
				}
				small(p, 1) // makes the key, and the page of its slab class
				if status, clean = small(p, 2); status != protocol.StatusStored {
					t.Fatalf("fixture: the small SET was answered %v", status)
				}
				for i := 0; i < 120 && wedged == 0; i++ {
					inFlight = p.Now()
					execute(p, a, enSet(fmt.Sprintf("en:big:%03d", i), enBig, uint64(i)))
					evicting, inFlight = p.Now()-inFlight, 0
				}
			}},
			sim.Driver{Name: "en-watch", Fn: func(p *sim.Proc) {
				for ; wedged == 0; p.Sleep(10 * sim.Microsecond) {
					if inFlight != 0 && p.Now()-inFlight > 100*sim.Microsecond {
						status, wedged = small(p, 3)
					}
				}
			}})
		if wedged == 0 {
			t.Fatal("no SET server 0 coordinated was ever held up: nothing evicted")
		}
		if at0, at1 := cl.Servers[0].Store().Manager().FlushPages, cl.Servers[1].Store().Manager().FlushPages; at0 != 0 || at1 == 0 || evicting < sim.Millisecond {
			t.Fatalf("the premise: the SET that was held up took %v, with %d pages flushed at server 0 and %d at server 1; want a millisecond-long eviction at server 1 alone", evicting, at0, at1)
		}
		if status != protocol.StatusStored || wedged != clean {
			t.Errorf("the SET server 1 coordinated during its applier's eviction: %v after %v; with nothing going on, STORED after %v", status, wedged, clean)
		}
	})

	// The aggregate: two clients, each SETting 400 distinct 32 KB keys one after
	// another, over eight key sets (which store call meets an eviction is chance,
	// so one set says little). What still ends NO_REPLICA is a forward whose own
	// apply meets the 3 ms barrier (ROADMAP Residue); what no longer does is
	// every write whose ack, or whose forward, arrived behind one. With the
	// engine applying inline the eight runs ended 216 of 6 400 SETs NO_REPLICA
	// after 717 resends; a quarter of that is the bar. H-RDMA-Def is the sync
	// pipeline, so its ack wait is on the dispatcher either way; the
	// H-RDMA-Opt-NonB-i row runs the same load on the async pipeline, where
	// the wait is on a responder: 0 NO_REPLICA after 12 resends, as with the
	// wait on a storage worker (its evictions go through the page cache).
	t.Run("two clients spilling", func(t *testing.T) {
		for _, row := range []struct {
			design                   cluster.Design
			maxNoReplica, maxResends int64
		}{
			{cluster.HRDMADef, 216 / 4, 717 / 4},
			{cluster.HRDMAOptNonBI, 0, 12},
		} {
			noReplica, resends := int64(0), int64(0)
			for set := 0; set < 8; set++ {
				cl := spillPair(row.design, 2)
				clients := make([]sim.Driver, len(cl.Clients))
				for ci, c := range cl.Clients {
					clients[ci] = sim.Driver{Name: "en-client", Fn: func(p *sim.Proc) {
						for i := 0; i < 400; i++ {
							switch st := c.Set(p, fmt.Sprintf("s%d:c%d:%04d", set, ci, i), enBig, uint64(i), 0, 0); st {
							case protocol.StatusStored:
							case protocol.StatusNoReplica:
								noReplica++
							default:
								t.Errorf("%v: a SET was answered %v", row.design, st)
							}
						}
					}}
				}
				sim.DriveUntil(t, cl.Env, -1, clients...)
				total := cl.ReplicationCounters()
				resends += total.Val(metrics.CForwardResends)
				cl.Env.Close()
			}
			t.Logf("%v: %d of 6400 SETs NO_REPLICA, %d forward-resends", row.design, noReplica, resends)
			if noReplica > row.maxNoReplica || resends > row.maxResends {
				t.Errorf("%v: %d of 6400 SETs ended NO_REPLICA after %d forward-resends; want at most %d and %d", row.design, noReplica, resends, row.maxNoReplica, row.maxResends)
			}
		}
	})

	// What handling a frame inline gave for free and a queue does not: a
	// forward taken off the receive queue a microsecond before the node crashes
	// is neither applied nor acked once it is dead. All four appliers of server
	// 1 are busy with 256 KB forwards when server 0's SET arrives; it waits its
	// turn, the node crashes, and an applier comes free 30 µs later.
	t.Run("a forward queued before a crash dies with the node", func(t *testing.T) {
		cl := cluster.New(cluster.Config{
			Design: cluster.HRDMAOptNonBI, Profile: cluster.ClusterA(),
			Servers: 2, Clients: 1, ServerMem: 64 << 20, ReplicationFactor: 2, NoScrub: true,
		})
		a, b := cl.Replicators[0], cl.Replicators[1]
		var status protocol.Status
		var crashed, answered sim.Time
		sim.DriveUntil(t, cl.Env, -1,
			sim.Driver{Name: "en-driver", Fn: func(p *sim.Proc) {
				for i := 0; i < replication.ApplyPoolForTest; i++ {
					b.DeliverWriteForTest(0, fmt.Sprintf("en:wedge:%d", i), 0x100, i, 256<<10, false)
				}
				status = execute(p, a, enSet("en:queued", enSmall, 1)).Status
				answered = p.Now()
			}},
			sim.Driver{Name: "en-crash", Fn: func(p *sim.Proc) {
				for waiting, _ := b.QueuedForTest(); waiting == 0; waiting, _ = b.QueuedForTest() {
					p.Sleep(100 * sim.Nanosecond)
				}
				p.Sleep(sim.Microsecond)
				cl.Servers[1].Crash()
				crashed = p.Now()
				p.Sleep(5 * sim.Millisecond)
				cl.Servers[1].Restart()
			}})
		if crashed == 0 {
			t.Fatal("the premise: server 0's forward never waited for an applier")
		}
		if status != protocol.StatusNoReplica || answered-crashed < sim.Millisecond {
			t.Errorf("the SET was answered %v, %v after its backup crashed with the forward queued; want NO_REPLICA once the resends run out", status, answered-crashed)
		}
		if _, _, _, ok := b.RecordForTest("en:queued"); ok {
			t.Error("the dead node applied the forward it had queued")
		}
	})
}
