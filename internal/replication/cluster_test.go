package replication_test

import (
	"fmt"
	"hybridkv/internal/metrics"
	"testing"

	"hybridkv/internal/cluster"
	"hybridkv/internal/core"
	"hybridkv/internal/fault"
	"hybridkv/internal/protocol"
	"hybridkv/internal/replication"
	"hybridkv/internal/server"
	"hybridkv/internal/sim"
)

// The cluster-level contracts: these drive real writes through a three
// server, R=2 cluster and then inspect the servers' stores directly, so
// they pin down what "replicated" means independently of the client path.

const (
	itKeys  = 32
	itValue = 512
)

func itKey(i int) string { return fmt.Sprintf("it:%04d", i) }

// itDo runs op to completion and returns the server's status.
func itDo(p *sim.Proc, c *core.Client, op core.Op) protocol.Status {
	req, _ := c.Issue(p, op)
	c.Wait(p, req)
	return req.Status
}

// itRing rebuilds the replica mapping the cluster used: NewRing over the
// same ids is deterministic, so the test knows each key's replica set
// without reaching into unexported state.
func itRing(servers int) *replication.Ring {
	ring := replication.NewRing()
	for i := 0; i < servers; i++ {
		ring.Add(i)
	}
	return ring
}

// execute coordinates one request on r as a server does a bare one: open
// the round, apply locally, wait for the chain.
func execute(p *sim.Proc, r *replication.Replicator, req *protocol.Request) *protocol.Response {
	fwd := r.Begin(p, req)
	resp := r.Apply(p, req, fwd)
	r.Finish(p, resp, fwd)
	return resp
}

func itCluster() *cluster.Cluster {
	return cluster.New(cluster.Config{
		Design:            cluster.HRDMAOptNonBB,
		Profile:           cluster.ClusterA(),
		Servers:           3,
		Clients:           1,
		ServerMem:         8 << 20,
		ReplicationFactor: 2,
	})
}

// A completed SET must be on every member of the key's replica set — that
// is the ack's durability promise — and on no one else (a proxy
// coordinator forwards, it does not hoard).
func TestWriteReplicatesToAllMembers(t *testing.T) {
	cl := itCluster()
	c := cl.Clients[0]
	ring := itRing(3)

	cl.Env.Spawn("it-driver", func(p *sim.Proc) {
		for i := 0; i < itKeys; i++ {
			c.Set(p, itKey(i), itValue, uint64(i+1), 0, 0)
		}
		for i := 0; i < itKeys; i++ {
			key := itKey(i)
			member := map[int]bool{}
			for _, id := range ring.Replicas(key, 2) {
				member[id] = true
			}
			for sid, s := range cl.Servers {
				v, _, _, ok := s.Store().ReadItem(p, key)
				if member[sid] && !ok {
					t.Errorf("server %d is a replica of %q but does not hold it", sid, key)
				}
				if !member[sid] && ok {
					t.Errorf("server %d holds %q without being a replica", sid, key)
				}
				if ok {
					if seq, _ := v.(uint64); seq != uint64(i+1) {
						t.Errorf("server %d holds %q at seq %d, want %d", sid, key, seq, i+1)
					}
				}
			}
		}
	})
	cl.Env.Run()

	total := cl.ReplicationCounters()
	if total.Val(metrics.CForwards) == 0 {
		t.Error("no write was ever forwarded")
	}
}

// A coordinator outside the key's replica set must still drive the chain —
// forward to both members, wait for their acks — without applying locally.
func TestProxyCoordinatorForwardsWithoutApplying(t *testing.T) {
	cl := itCluster()
	ring := itRing(3)

	// Find a key whose replica set excludes server 2.
	key, member := "", map[int]bool{}
	for i := 0; i < 256; i++ {
		k := fmt.Sprintf("proxy:%04d", i)
		m := map[int]bool{}
		for _, id := range ring.Replicas(k, 2) {
			m[id] = true
		}
		if !m[2] {
			key, member = k, m
			break
		}
	}
	if key == "" {
		t.Fatal("no key maps away from server 2")
	}

	cl.Env.Spawn("it-proxy", func(p *sim.Proc) {
		r := cl.Replicators[2]
		req := &protocol.Request{Op: protocol.OpSet, Key: key, ValueSize: itValue, Value: uint64(7)}
		resp := execute(p, r, req)
		if resp.Status != protocol.StatusStored {
			t.Fatalf("proxy-coordinated SET answered %v", resp.Status)
		}
		for sid, s := range cl.Servers {
			_, _, _, ok := s.Store().ReadItem(p, key)
			if member[sid] && !ok {
				t.Errorf("replica %d missing proxy-coordinated write of %q", sid, key)
			}
			if !member[sid] && ok {
				t.Errorf("non-member %d applied proxy-coordinated write of %q", sid, key)
			}
		}
	})
	cl.Env.Run()
}

// Whole-node kill with the SSD wiped: the restarted node comes back owning
// nothing, and the anti-entropy scrubber — kicked by the cold recovery —
// must re-fetch every key the node shares from the surviving replicas,
// without any client traffic driving it.
func TestWipedNodeReconvergesViaScrub(t *testing.T) {
	cl := itCluster()
	c := cl.Clients[0]
	ring := itRing(3)
	victim := 1

	cl.Env.Spawn("it-kill", func(p *sim.Proc) {
		for i := 0; i < itKeys; i++ {
			c.Set(p, itKey(i), itValue, uint64(i+1), 0, 0)
		}
		s := cl.Servers[victim]
		s.Outage(p, server.KillAll, 300*sim.Microsecond)
		// Let the scrub bursts run; repair applies re-kick, so convergence
		// does not depend on the first burst finishing the job.
		p.Sleep(30 * sim.Millisecond)
		for i := 0; i < itKeys; i++ {
			key := itKey(i)
			shared := false
			for _, id := range ring.Replicas(key, 2) {
				if id == victim {
					shared = true
				}
			}
			if !shared {
				continue
			}
			v, _, _, ok := s.Store().ReadItem(p, key)
			if !ok {
				t.Errorf("wiped node never re-fetched its replica of %q", key)
				continue
			}
			if seq, _ := v.(uint64); seq != uint64(i+1) {
				t.Errorf("wiped node re-fetched %q at seq %d, want %d", key, seq, i+1)
			}
		}
	})
	cl.Env.Run()

	total := cl.ReplicationCounters()
	if total.Val(metrics.CRepairPushes) == 0 {
		t.Error("reconvergence without a single repair push — scrub never ran")
	}
	if total.Val(metrics.CScrubRounds) == 0 {
		t.Error("no scrub round after a cold recovery kick")
	}
}

// An acked RMW post-image is replicated like a SET: a backup that loses its
// RAM right after the Add holds the added value again once it has recovered
// and reconverged, and a client reads it.
func TestAckedAddSurvivesReplicaRestart(t *testing.T) {
	cl := itCluster()
	c := cl.Clients[0]
	ring := itRing(3)
	key := "rmw:add"
	backup := ring.Replicas(key, 2)[1]

	cl.Env.Spawn("it-rmw", func(p *sim.Proc) {
		if st := itDo(p, c, core.Op{Code: protocol.OpAdd, Key: key, ValueSize: itValue, Value: uint64(2)}); st != protocol.StatusStored {
			t.Errorf("add: %v", st)
			return
		}
		s := cl.Servers[backup]
		s.Outage(p, server.KillRAM, 300*sim.Microsecond)
		p.Sleep(30 * sim.Millisecond)
		v, _, _, ok := s.Store().ReadItem(p, key)
		if !ok {
			t.Error("restarted backup lost the acked Add")
		} else if seq, _ := v.(uint64); seq != 2 {
			t.Errorf("restarted backup holds seq %d, want 2", seq)
		}
		if v2, _, status := c.Get(p, key); status != protocol.StatusOK {
			t.Errorf("get after restart: %v", status)
		} else if seq, _ := v2.(uint64); seq != 2 {
			t.Errorf("get observed seq %d, want 2", seq)
		}
	})
	cl.Env.Run()
}

// Whole-node kill with the SSD intact: recovery resurrects the values but
// marks them suspect; the scrubber confirms them against the peers. After
// the settle every suspect is resolved — served values match the freshest
// epoch — and the run records confirmations, not stale serves.
func TestColdRestartSuspectsConfirmed(t *testing.T) {
	cl := itCluster()
	c := cl.Clients[0]
	victim := 0

	cl.Env.Spawn("it-restart", func(p *sim.Proc) {
		for i := 0; i < itKeys; i++ {
			c.Set(p, itKey(i), itValue, uint64(i+1), 0, 0)
		}
		s := cl.Servers[victim]
		s.Outage(p, server.KillRAM, 300*sim.Microsecond)
		p.Sleep(30 * sim.Millisecond)
		// Client reads must still see the latest value for every key, no
		// matter which replica serves them.
		for i := 0; i < itKeys; i++ {
			v, _, status := c.Get(p, itKey(i))
			if status != protocol.StatusOK {
				t.Errorf("get %q after restart: %v", itKey(i), status)
				continue
			}
			if seq, _ := v.(uint64); seq != uint64(i+1) {
				t.Errorf("get %q observed seq %d, want %d", itKey(i), seq, i+1)
			}
		}
	})
	cl.Env.Run()
}

// A round that re-coordinates above a conflicting epoch is re-registered
// under a new id; when it completes, that id — not the one the round was
// opened under — must leave the table, or the Forward and the value it holds
// stay for the life of the node and late acks still find it.
func TestRecoordinatedRoundLeavesNoForwardBehind(t *testing.T) {
	cl := itCluster()
	ring := itRing(3)
	// Two coordinators of one key: its primary, and the server outside its
	// replica set, whose own epoch record never sees the members' applies.
	key, primary, proxy := "", 0, 0
	for i := 0; key == "" && i < 256; i++ {
		k := fmt.Sprintf("contended:%04d", i)
		set := ring.Replicas(k, 2)
		for sid := 0; sid < 3; sid++ {
			if sid != set[0] && sid != set[1] {
				key, primary, proxy = k, set[0], sid
			}
		}
	}
	conflicts := func() int64 { total := cl.ReplicationCounters(); return total.Val(metrics.CEpochConflicts) }
	for round := 0; round < 64 && conflicts() == 0; round++ {
		for i, sid := range []int{primary, proxy} {
			r, seq := cl.Replicators[sid], uint64(2*round+i+1)
			cl.Env.Spawn(fmt.Sprintf("it-coord%d", sid), func(p *sim.Proc) {
				req := &protocol.Request{Op: protocol.OpSet, Key: key, ValueSize: itValue, Value: seq}
				execute(p, r, req)
			})
		}
		cl.Env.Run()
	}
	if conflicts() == 0 {
		t.Fatal("two concurrent coordinators never conflicted: the test exercises nothing")
	}
	for sid, r := range cl.Replicators {
		if n := r.OpenForwardsForTest(); n != 0 {
			t.Errorf("replicator %d still holds %d write rounds at quiescence", sid, n)
		}
	}
}

// writePathCluster is three async servers at R = 3 with the scrubber off:
// every server replicates every key, and whatever a test finds on a replica
// was put there by the write path, the pull or a push it asked for — not by a
// scrub round that happened to pass.
func writePathCluster() *cluster.Cluster {
	return cluster.New(cluster.Config{
		Design: cluster.HRDMAOptNonBI, Profile: cluster.ClusterA(),
		Servers: 3, Clients: 1, ServerMem: 64 << 20,
		ReplicationFactor: 3, NoScrub: true,
	})
}

// The epoch guard has to hold at the instant the value is swapped in, not
// just when the store call starts: the call suspends in the allocation and
// the copy, and a later write of the key — from this coordinator's next round
// on another storage worker, or forwarded by another coordinator — lands
// meanwhile. SET k 512 KB then SET k 64 B, neither awaited, on the async
// server: the small write finishes first, and the large one must then find
// itself superseded instead of swapping its value in over it and moving the
// coordinator's record back. The moment both are answered every replica holds
// the second value at one epoch; the scrubber is off, so nothing but the write
// path can have put it there.
func TestSmallWriteOvertakingALargeOneOfTheSameKey(t *testing.T) {
	cl := writePathCluster()
	c := cl.Clients[0]
	const key = "overtake:k"
	cl.Env.Spawn("it-overtake", func(p *sim.Proc) {
		var sets []*core.Req
		for seq, size := range []int{512 << 10, 64} {
			req, err := c.Issue(p, core.Op{Code: protocol.OpSet, Key: key, ValueSize: size, Value: uint64(seq + 1)})
			if err != nil {
				t.Fatal(err)
			}
			sets = append(sets, req)
		}
		c.WaitAll(p, sets)
		for i, req := range sets {
			if req.Status != protocol.StatusStored {
				t.Errorf("SET %d: %v", i+1, req.Status)
			}
		}
		var epochs []uint64
		for sid, s := range cl.Servers {
			epoch, _, _ := cl.Replicators[sid].AppliedStateForTest(key)
			epochs = append(epochs, epoch)
			if v, _, _, ok := s.Store().ReadItem(p, key); !ok || v != uint64(2) {
				t.Errorf("server %d holds %v (present=%v) once both SETs are answered, want 2", sid, v, ok)
			}
		}
		if epochs[0] == 0 || epochs[0] != epochs[1] || epochs[1] != epochs[2] {
			t.Errorf("epoch records %#x once both SETs are answered, want one epoch on all three", epochs)
		}
		if v, _, st := c.Get(p, key); st != protocol.StatusOK || v != uint64(2) {
			t.Errorf("GET after both SETs were answered: %v (%v), want 2", v, st)
		}
	})
	cl.Env.Run()
}

// The same guard, mirrored: the suspended store call is a forwarded write's, on
// the receiver's engine, and what lands meanwhile is the receiver's own
// coordinated write of the key, on a storage worker. Server 0 coordinates a
// 512 KB SET; while server 1 is copying it in, server 1 coordinates a 64 B SET
// of the same key, which mints above server 0's epoch and lands first. The
// forwarded value must then be judged stale at the swap, not applied over it.
func TestForwardedLargeWriteOvertakenByTheReceiversOwn(t *testing.T) {
	cl := writePathCluster()
	const key = "overtake:fwd"
	set := func(size int, seq uint64) *protocol.Request {
		return &protocol.Request{Op: protocol.OpSet, Key: key, ValueSize: size, Value: seq}
	}
	cl.Env.Spawn("it-coord0", func(p *sim.Proc) {
		if resp := execute(p, cl.Replicators[0], set(512<<10, 1)); resp.Status != protocol.StatusStored {
			t.Errorf("the large SET: %v", resp.Status)
		}
	})
	cl.Env.Spawn("it-coord1", func(p *sim.Proc) {
		for cl.Servers[1].Store().SetOps == 0 { // until the forwarded value's store call has begun
			p.Sleep(sim.Microsecond)
		}
		if resp := execute(p, cl.Replicators[1], set(64, 2)); resp.Status != protocol.StatusStored {
			t.Errorf("the small SET: %v", resp.Status)
		}
	})
	cl.Env.Run()
	cl.Env.Spawn("it-audit", func(p *sim.Proc) {
		var epochs []uint64
		for sid, s := range cl.Servers {
			epoch, _, _ := cl.Replicators[sid].AppliedStateForTest(key)
			epochs = append(epochs, epoch)
			if v, _, _, ok := s.Store().ReadItem(p, key); !ok || v != uint64(2) {
				t.Errorf("server %d holds %v (present=%v), want 2", sid, v, ok)
			}
		}
		if epochs[0]&0xff != 1 || epochs[0] != epochs[1] || epochs[1] != epochs[2] {
			t.Errorf("epoch records %#x, want server 1's epoch on all three", epochs)
		}
	})
	cl.Env.Run()
}

// A repair push has to carry a value and the epoch it was written under, read
// in one instant: reading the value back suspends (a 256 KB copy, or an SSD
// load), and a write of the key that lands on the pusher meanwhile releases
// the item being read and moves the record. Server 1 asks for the key after a
// corrupt read; while server 2 is reading its copy back to answer, server 2
// coordinates a small SET of the key. What reaches server 1 under the new
// epoch must be the new value — never the released item's emptiness, which at
// the epoch's own coordinator's word server 1 would take for a divergence
// repair and apply over the write it had just been forwarded.
func TestRepairPushReadsValueAndEpochTogether(t *testing.T) {
	cl := writePathCluster()
	const key = "push:k"
	set := func(size int, seq uint64) *protocol.Request {
		return &protocol.Request{Op: protocol.OpSet, Key: key, ValueSize: size, Value: seq}
	}
	cl.Env.Spawn("it-preload", func(p *sim.Proc) { execute(p, cl.Replicators[0], set(256<<10, 1)) })
	cl.Env.Run()
	cl.Env.Spawn("it-corrupt", func(p *sim.Proc) { cl.Replicators[1].OnCorrupt(p, key) })
	cl.Env.Spawn("it-write", func(p *sim.Proc) {
		pushes := func() int64 { return cl.Replicators[2].Counters.Val(metrics.CRepairPushes) }
		for n := pushes(); cl.Servers[2].Store().Manager().Gets == 0 && pushes() == n; { // until server 2 is reading its copy back
			p.Sleep(100 * sim.Nanosecond)
		}
		p.Sleep(2 * sim.Microsecond)
		if resp := execute(p, cl.Replicators[2], set(64, 2)); resp.Status != protocol.StatusStored {
			t.Errorf("the SET: %v", resp.Status)
		}
	})
	cl.Env.Run()
	cl.Env.Spawn("it-audit", func(p *sim.Proc) {
		for sid, s := range cl.Servers {
			epoch, sum, _ := cl.Replicators[sid].AppliedStateForTest(key)
			v, _, _, ok := s.Store().ReadItem(p, key)
			if !ok || v != uint64(2) || sum != protocol.ValueSum(uint64(2)) {
				t.Errorf("server %d holds %v (present=%v) under %#x/%#x, want 2 under its content sum", sid, v, ok, epoch, sum)
			}
		}
	})
	cl.Env.Run()
	total := cl.ReplicationCounters()
	if n := total.Val(metrics.CScrubCorruptionsRepaired); n != 0 {
		t.Errorf("%d divergence repairs applied: nothing diverged", n)
	}
}

// Dropping a suspect value every peer disowned is a store call too, and a write
// of the key that lands under it has to survive it: the drop is decided when
// the last miss arrives, the delete suspends for its probe, and a SET the same
// server coordinates meanwhile clears the suspicion and puts a fresh, acked
// value where the delete is about to strike. Swept over the SET's start, 40 ns
// apart across the whole pull (the probe is 120 ns): wherever it lands, once it
// is answered STORED every replica holds it.
func TestSuspectDropSparesAWriteThatLandedUnderIt(t *testing.T) {
	const key = "drop:k"
	lost := 0
	for at := sim.Microsecond; at < 5*sim.Microsecond; at += 40 * sim.Nanosecond {
		cl := writePathCluster()
		r, st := cl.Replicators[1], cl.Servers[1].Store()
		cl.Env.Spawn("it-recovered", func(p *sim.Proc) {
			// A value only server 1 holds, as a cold restart would resurrect it.
			st.Set(p, key, 64, "resurrected", 0, 0)
			r.OnColdRecovery([]string{key})
			r.Apply(p, &protocol.Request{Op: protocol.OpGet, Key: key}, nil)
		})
		stored := false
		cl.Env.SpawnAt(at, "it-write", func(p *sim.Proc) {
			req := &protocol.Request{Op: protocol.OpSet, Key: key, ValueSize: 64, Value: "written"}
			stored = execute(p, r, req).Status == protocol.StatusStored
		})
		cl.Env.Run()
		if !stored {
			t.Fatalf("SET started at +%v was not stored", at)
		}
		cl.Env.Spawn("it-audit", func(p *sim.Proc) {
			for sid, s := range cl.Servers {
				_, _, ok := cl.Replicators[sid].AppliedStateForTest(key)
				if v, _, _, held := s.Store().ReadItem(p, key); !ok || !held || v != "written" {
					if lost++; lost <= 3 {
						t.Errorf("SET started at +%v: server %d holds %v (present=%v, record=%v), want the value written", at, sid, v, held, ok)
					}
				}
			}
		})
		cl.Env.Run()
	}
	if lost > 0 {
		t.Errorf("the acked write was missing on a replica at %d of the start offsets", lost)
	}
}

// A suspect key every peer disowns is dropped, counted once — as a suspect
// drop, not also as a stale read prevented: nothing was refused — and the
// request that asked then runs against the key as it now is: a GET misses, an
// Add finds no such key and stores, where it used to be turned away as
// retryable.
func TestSuspectKeyNobodyHoldsIsDroppedAndTheRequestRuns(t *testing.T) {
	cl := writePathCluster()
	r, st := cl.Replicators[1], cl.Servers[1].Store()
	cl.Env.Spawn("it-suspects", func(p *sim.Proc) {
		for _, key := range []string{"gone:get", "gone:add"} {
			st.Set(p, key, 64, "resurrected", 0, 0)
		}
		r.OnColdRecovery([]string{"gone:get", "gone:add"})
		if resp := r.Apply(p, &protocol.Request{Op: protocol.OpGet, Key: "gone:get"}, nil); resp.Status != protocol.StatusNotFound {
			t.Errorf("GET of a suspect key nobody holds: %v, want a miss", resp.Status)
		}
		add := &protocol.Request{Op: protocol.OpAdd, Key: "gone:add", ValueSize: 64, Value: "added"}
		if resp := r.Apply(p, add, nil); resp.Status != protocol.StatusStored {
			t.Errorf("Add of a suspect key nobody holds: %v, want it decided on the absent key", resp.Status)
		}
		for sid, s := range cl.Servers {
			if v, _, _, ok := s.Store().ReadItem(p, "gone:add"); !ok || v != "added" {
				t.Errorf("server %d holds %v (present=%v) for the added key", sid, v, ok)
			}
		}
	})
	cl.Env.Run()
	if drops, prevented := r.Counters.Val(metrics.CSuspectDrops), r.Counters.Val(metrics.CStaleReadsPrevented); drops != 2 || prevented != 0 {
		t.Errorf("suspect-drops %d, stale-reads-prevented %d; want 2 and 0", drops, prevented)
	}
}

// A suspect key whose peers cannot answer — both crashed, the pull times out
// — is refused, not served: the value the SSD resurrected may be a superseded
// epoch and nobody is left to say. A GET is answered as a miss (always
// legal), an RMW as retryable, so the client takes it to a replica that can
// decide; both are counted as stale reads prevented, and the recovered copy
// stays, still suspect, for a peer to confirm later.
func TestSuspectKeyNoPeerConfirmsIsRefused(t *testing.T) {
	cl := writePathCluster()
	r, st := cl.Replicators[1], cl.Servers[1].Store()
	cl.Env.Spawn("it-unconfirmed", func(p *sim.Proc) {
		for _, key := range []string{"old:get", "old:incr"} {
			st.Set(p, key, 64, uint64(7), 0, 0)
		}
		r.OnColdRecovery([]string{"old:get", "old:incr"})
		cl.Servers[0].Crash()
		cl.Servers[2].Crash()
		get := &protocol.Request{Op: protocol.OpGet, ReqID: 41, Key: "old:get"}
		if resp := r.Apply(p, get, nil); resp.Status != protocol.StatusNotFound || resp.Value != nil || resp.ReqID != 41 {
			t.Errorf("GET of a suspect key no peer confirms: %+v, want a bare miss for request 41", resp)
		}
		incr := &protocol.Request{Op: protocol.OpIncr, ReqID: 42, Key: "old:incr", Delta: 1}
		if resp := r.Apply(p, incr, nil); resp.Status != protocol.StatusRecovering || resp.ReqID != 42 {
			t.Errorf("Incr of a suspect key no peer confirms: %+v, want StatusRecovering for request 42", resp)
		}
		if v, _, _, ok := st.ReadItem(p, "old:incr"); !ok || v != uint64(7) {
			t.Errorf("the refused Incr left (%v, present=%v), want the recovered 7 untouched", v, ok)
		}
	})
	cl.Env.Run()
	if prevented, drops := r.Counters.Val(metrics.CStaleReadsPrevented), r.Counters.Val(metrics.CSuspectDrops); prevented != 2 || drops != 0 {
		t.Errorf("stale-reads-prevented %d, suspect-drops %d; want 2 and 0", prevented, drops)
	}
	for _, key := range []string{"old:get", "old:incr"} {
		if _, _, suspect, ok := r.RecordForTest(key); !ok || !suspect {
			t.Errorf("%s after the refusal: suspect=%v present=%v, want it still suspect", key, suspect, ok)
		}
	}
}

// A forward whose value is garbled in flight (fault.AddCorrupt: the fabric
// delivers the frame's CorruptCopy, sum as the sender stamped it) is rejected
// by the replica that receives it — not installed, not acked — and the write
// still lands everywhere: the coordinator's resend, at a later instant,
// re-rolls the fault. The scrubber is off, so nothing but a resend can have
// delivered the clean copy.
func TestForwardGarbledInFlightIsRejectedAndResent(t *testing.T) {
	cl := writePathCluster()
	inj := fault.New(fault.Config{Seed: 1})
	inj.AddCorrupt(7, 0.3)
	cl.Fabric.SetFaults(inj)
	c := cl.Clients[0]
	cl.Env.Spawn("it-garbled", func(p *sim.Proc) {
		for i := 0; i < itKeys; i++ {
			if st := c.Set(p, itKey(i), itValue, uint64(i+1), 0, 0); st != protocol.StatusStored {
				t.Errorf("SET %s under in-flight corruption: %v", itKey(i), st)
			}
		}
		for i := 0; i < itKeys; i++ {
			for sid, s := range cl.Servers {
				if v, _, _, ok := s.Store().ReadItem(p, itKey(i)); !ok || v != uint64(i+1) {
					t.Errorf("server %d holds %v (present=%v) for %s, want %d", sid, v, ok, itKey(i), i+1)
				}
			}
		}
	})
	cl.Env.Run()
	total := cl.ReplicationCounters()
	if rejected, resends := total.Val(metrics.CCorruptFramesRejected), total.Val(metrics.CForwardResends); rejected == 0 || resends == 0 {
		t.Errorf("corrupt-frames-rejected %d, forward-resend rounds %d (the injector garbled %d messages): want forwards rejected and resent",
			rejected, resends, inj.Corrupts)
	}
}
