package replication_test

import (
	"fmt"
	"testing"

	"hybridkv/internal/cluster"
	"hybridkv/internal/fault"
	"hybridkv/internal/protocol"
	"hybridkv/internal/replication"
	"hybridkv/internal/sim"
)

// The install matrix: every way a version of a key reaches a server's store
// (rows) against everything that can be going on at that server when it does
// (columns), under one list of assertions (installCell.audit). The rows all end
// in install — or, for an RMW's post-image, in landed; what differs is who
// minted the epoch, which proc makes the store call, and what answer is owed.
// The server the row's write is installed on is the cell's subject: the
// columns happen there, timed by the clock of the row's clean run (the instant
// the subject's store call begins, the instant its record moves). A change to
// mint, install, the pull or reconcile should fail a cell here before it moves
// a registry record.

const (
	// imBig is the size of every value a row writes or pushes: 256 KB is a
	// store call of ~35 µs, wide enough to land another write inside it.
	imBig   = 256 << 10
	imSmall = 64
	// A cell runs this long after its action starts: a scrub burst is eight
	// rounds 2 ms apart, and a repair re-arms it.
	imRun = 80 * sim.Millisecond
	// imLead is how long after the fixture's quiescence the action starts, so
	// a column can arrange something just before it.
	imLead = 10 * sim.Microsecond
)

// imKey is replicated on servers 0–2 at R=3 and, once a fourth server joins,
// moves onto it.
var imKey = func() string {
	ring := itRing(4)
	for i := 0; ; i++ {
		key := fmt.Sprintf("im:%03d", i)
		for _, id := range ring.Replicas(key, 3) {
			if id == 3 {
				return key
			}
		}
	}
}()

// imCounts are the counters the rules are stated in, summed over the fleet.
type imCounts struct{ forwards, conflicts, pulls, pushes int64 }

func (n imCounts) String() string {
	return fmt.Sprintf("forwards %d, epoch-conflicts %d, repair-pulls %d, repair-pushes %d", n.forwards, n.conflicts, n.pulls, n.pushes)
}

// imWrite is one write of the key: the epoch its round ended on (0 when the
// round is not the test's to see: an RMW's) and the content sum of its value
// (0 for a delete).
type imWrite struct{ epoch, sum uint64 }

type installCell struct {
	t      *testing.T
	cl     *cluster.Cluster
	inj    *fault.Injector
	s      int      // the subject server
	seq    uint64   // the last value written
	issued []uint64 // content sums of every value any write carried
	acked  []imWrite
	floor  map[int]uint64 // per server, the highest confirmed epoch seen for the key
	start  sim.Time       // when the action starts
	base   imCounts       // the counters when it does
	// epoch is the epoch under which the row's write landed at the subject in
	// the clean run: what a column needs to name a version just below it.
	epoch uint64
}

// newInstallCell builds three servers at R = 3 holding the key at 256 KB,
// written once through server 0, at quiescence. With spill the slabs are 4 MB
// and the subject's SSD holds 6 MB of unreplicated fillers — the later ones,
// still in RAM, deleted again so that nothing the cell writes has to evict —
// so a cold restart of it has a recovery scan to be inside of.
func newInstallCell(t *testing.T, s int, fcfg fault.Config, spill bool) *installCell {
	t.Helper()
	mem := int64(64 << 20)
	if spill {
		mem = 4 << 20
	}
	c := &installCell{t: t, s: s, inj: fault.New(fcfg), floor: map[int]uint64{}}
	c.cl = cluster.New(cluster.Config{
		Design: cluster.HRDMAOptNonBI, Profile: cluster.ClusterA(),
		Servers: 3, Clients: 1, ServerMem: mem, ReplicationFactor: 3,
	})
	c.cl.Fabric.SetFaults(c.inj)
	c.cl.Env.Spawn("im-preload", func(p *sim.Proc) {
		if spill && s < len(c.cl.Servers) {
			st := c.cl.Servers[s].Store()
			for i := 0; i < 384; i++ {
				st.Set(p, fmt.Sprintf("fill-%04d", i), 32<<10, i, 0, 0)
			}
			for i := 200; i < 384; i++ {
				st.Delete(p, fmt.Sprintf("fill-%04d", i))
			}
		}
		c.coordinate(p, 0, c.set(imBig))
	})
	c.cl.Env.Run()
	if len(c.acked) != 1 {
		t.Fatalf("fixture: the preload's SET was not stored")
	}
	c.start = c.cl.Env.Now() + imLead
	c.base = c.counts()
	return c
}

func (c *installCell) counts() imCounts {
	n := c.cl.ReplicationCounters()
	return imCounts{n.Get("forwards"), n.Get("epoch-conflicts"), n.Get("repair-pulls"), n.Get("repair-pushes")}
}

// moved is what the counters have done since the action started.
func (c *installCell) moved() imCounts {
	n := c.counts()
	return imCounts{n.forwards - c.base.forwards, n.conflicts - c.base.conflicts, n.pulls - c.base.pulls, n.pushes - c.base.pushes}
}

func (c *installCell) value(op protocol.Opcode, size int) *protocol.Request {
	c.seq++
	c.issued = append(c.issued, protocol.ValueSum(c.seq))
	return &protocol.Request{Op: op, Key: imKey, ValueSize: size, Value: c.seq}
}
func (c *installCell) set(size int) *protocol.Request { return c.value(protocol.OpSet, size) }
func (c *installCell) del() *protocol.Request {
	return &protocol.Request{Op: protocol.OpDelete, Key: imKey}
}

// coordinate runs one request on server sid as the server runs a bare one —
// open the round, apply, wait for the chain — and records a write answered
// STORED or DELETED as acked.
func (c *installCell) coordinate(p *sim.Proc, sid int, req *protocol.Request) *protocol.Response {
	r := c.cl.Replicators[sid]
	fwd := r.Begin(p, req)
	resp := r.Apply(p, req, fwd)
	r.Finish(p, resp, fwd)
	if resp.Status == protocol.StatusStored || resp.Status == protocol.StatusDeleted {
		w := imWrite{}
		if req.Op != protocol.OpDelete {
			w.sum = protocol.ValueSum(req.Value)
		}
		if fwd != nil {
			w.epoch = fwd.EpochForTest()
		}
		c.acked = append(c.acked, w)
	}
	return resp
}

// watch checks, every 2 µs for the life of the cell, that no server's
// confirmed epoch for the key ever decreases. A whole-node kill takes the
// record with it: forget resets that server's floor.
func (c *installCell) watch() {
	c.cl.Env.Spawn("im-watch", func(p *sim.Proc) {
		for {
			for sid, r := range c.cl.Replicators {
				epoch, _, _, suspect, ok := r.RecordForTest(imKey)
				if !ok || suspect {
					continue
				}
				if epoch < c.floor[sid] {
					c.t.Errorf("at %v server %d's epoch record moved back from %#x to %#x", p.Now(), sid, c.floor[sid], epoch)
				}
				c.floor[sid] = epoch
			}
			p.Sleep(2 * sim.Microsecond)
		}
	})
}

func (c *installCell) forget(sid int) { delete(c.floor, sid) }

// imRow is one way a version reaches the subject's store.
type imRow struct {
	name string
	s    int
	// coordinated: the subject is the write's coordinator, and the store call
	// is made by the request's own proc; otherwise the write arrives in a frame
	// and the subject's engine makes it.
	coordinated bool
	// storeCall is which of the subject's store calls, counted from the start
	// of the action, is the row's install.
	storeCall int64
	act       func(p *sim.Proc, c *installCell)
	// clean is what the counters do when nothing interferes.
	clean imCounts
}

var imRows = []imRow{
	{
		name: "coordinated SET", s: 1, coordinated: true, storeCall: 1, clean: imCounts{forwards: 1},
		act: func(p *sim.Proc, c *installCell) { c.coordinate(p, 1, c.set(imBig)) },
	},
	{
		name: "coordinated DELETE", s: 1, coordinated: true, storeCall: 1, clean: imCounts{forwards: 1},
		act: func(p *sim.Proc, c *installCell) { c.coordinate(p, 1, c.del()) },
	},
	{
		// The store decides and applies (Replace, on the guarded swap); the
		// post-image is then forwarded like a SET and recorded through landed.
		name: "RMW post-image", s: 1, coordinated: true, storeCall: 1, clean: imCounts{forwards: 1},
		act: func(p *sim.Proc, c *installCell) { c.coordinate(p, 1, c.value(protocol.OpReplace, imBig)) },
	},
	{
		// Servers 1 and 2 coordinate at once, and 2's forward to 1 is lost for
		// 30 µs: 1's round is rejected by 2 (which holds the higher epoch of its
		// own write) while 1 has not seen that write, so 1 re-coordinates above
		// it — its second store call. 2's resend is then the stale one.
		name: "re-coordinated round", s: 1, coordinated: true, storeCall: 2, clean: imCounts{forwards: 2, conflicts: 1},
		act: func(p *sim.Proc, c *installCell) {
			c.inj.AddPartition("server2", "server1", p.Now(), p.Now()+30*sim.Microsecond)
			c.cl.Env.Spawn("im-other", func(p *sim.Proc) { c.coordinate(p, 2, c.set(imSmall)) })
			c.coordinate(p, 1, c.set(imBig))
		},
	},
	{
		// Coordinated by server 0, so that a round the subject opens meanwhile
		// mints the higher epoch of the two.
		name: "forwarded write", s: 1, storeCall: 1, clean: imCounts{forwards: 1},
		act: func(p *sim.Proc, c *installCell) { c.coordinate(p, 0, c.set(imBig)) },
	},
	{
		// A corrupt read at the subject: the key turns suspect, a pull opens,
		// both peers answer it with their copy, the first to arrive lands.
		name: "repair push answering a pull", s: 1, storeCall: 1, clean: imCounts{pulls: 1, pushes: 2},
		act: func(p *sim.Proc, c *installCell) { c.cl.Replicators[1].OnCorrupt(p, imKey) },
	},
	{
		// Server 0's forwards to the subject are lost for 1.5 ms: the write
		// fails NO_REPLICA after four sends, server 2 holds it, and the first of
		// the two holders' scrub rounds to reach the subject finds it behind and
		// pushes.
		name: "scrub-diff push", s: 1, storeCall: 1, clean: imCounts{forwards: 1, pushes: 1},
		act: func(p *sim.Proc, c *installCell) {
			c.inj.AddPartition("server0", "server1", p.Now(), p.Now()+1500*sim.Microsecond)
			if resp := c.coordinate(p, 0, c.set(imBig)); resp.Status != protocol.StatusNoReplica {
				c.t.Errorf("the write the subject never got was answered %v, want NO_REPLICA", resp.Status)
			}
		},
	},
	{
		// A fourth server joins and the key moves onto it: its migrator asks
		// each of the three old owners for its manifest, pulls the key from
		// each that lists it, and the first push to arrive lands. Migration
		// pulls are not counted as repair-pulls (DESIGN §10).
		name: "migration pull", s: 3, storeCall: 1, clean: imCounts{pushes: 3},
		act: func(p *sim.Proc, c *installCell) {
			_, done := c.cl.Join()
			p.Wait(done)
		},
	},
}

// pushed reports whether the row's version reaches the subject in a repair
// push — through the background lane — rather than in a forward.
func (row imRow) pushed() bool { return !row.coordinated && row.clean.pushes > 0 }

// noLane is the skip of a column about the lanes on a row whose version comes
// through none.
func noLane(row imRow) string {
	if row.coordinated {
		return "the subject's own proc installs the row's version: it comes through no lane"
	}
	return ""
}

// imCol is one thing going on at the subject when the row's write gets there.
// interfere arranges it by the clean run's clock — the subject's store call
// begins at begin, its record moves at landed; rule states what the counters
// do, given what they did in the row's clean run.
type imCol struct {
	name  string
	fcfg  fault.Config
	spill bool
	// skip, when set, says why the column cannot be built on a row ("" when it
	// can): the cell is a SKIP with that reason.
	skip      func(row imRow) string
	interfere func(c *installCell, row imRow, begin, landed sim.Time)
	// other, when set, says whose write the replicas must end up holding — the
	// column's own (its values are 64 bytes) or the row's (256 KB, or a
	// tombstone): the premise that the column did interfere as it says.
	other    func(row imRow) bool
	rule     func(row imRow, clean, got imCounts) bool
	ruleText string
}

var imCols = []imCol{
	{
		name:      "clean",
		interfere: func(*installCell, imRow, sim.Time, sim.Time) {},
		rule:      func(row imRow, clean, got imCounts) bool { return got == row.clean },
		ruleText:  "exactly the row's own traffic",
	},
	{
		// The subject opened the round of another SET of the key 2 µs before the
		// row's store call began — before the row's epoch was minted, when the
		// subject coordinates that too — and applies it only after the row's
		// write has landed: the order of a frame's members, and of a window's
		// arrivals on the async server.
		name: "a second write of the key in flight on this coordinator",
		interfere: func(c *installCell, row imRow, begin, landed sim.Time) {
			c.cl.Env.SpawnAt(begin-2*sim.Microsecond, "im-second", func(p *sim.Proc) {
				r, req := c.cl.Replicators[c.s], c.set(imSmall)
				fwd := r.Begin(p, req)
				p.Sleep(landed + sim.Microsecond - p.Now())
				resp := r.Apply(p, req, fwd)
				r.Finish(p, resp, fwd)
				if resp.Status != protocol.StatusStored {
					c.t.Errorf("the second write was answered %v", resp.Status)
				}
				c.acked = append(c.acked, imWrite{fwd.EpochForTest(), protocol.ValueSum(req.Value)})
			})
		},
		// Minted after it by the same coordinator, the row's write is the later
		// one; arriving from elsewhere, it carries server 0's epoch or an older
		// round's, and the subject's own is.
		other:    func(row imRow) bool { return !row.coordinated },
		rule:     oneMoreForward,
		ruleText: "one more forward and no more conflicts or pull rounds: whichever write loses completes as overwritten",
	},
	{
		// 2 µs into the row's store call another write of the key starts, with
		// a higher epoch, and lands while the call is still copying: server 2's
		// when the subject coordinates the row's write on a request's proc;
		// the subject's own when its engine is the one suspended.
		name: "a higher epoch landing while the store call is suspended",
		interfere: func(c *installCell, row imRow, begin, landed sim.Time) {
			from := c.s
			if row.coordinated {
				from = 2
			}
			c.cl.Env.SpawnAt(begin+2*sim.Microsecond, "im-higher", func(p *sim.Proc) {
				if resp := c.coordinate(p, from, c.set(imSmall)); resp.Status != protocol.StatusStored {
					c.t.Errorf("the higher write was answered %v", resp.Status)
				}
			})
		},
		// An RMW mints after its store call, above whatever landed under it.
		other:    func(row imRow) bool { return row.name != "RMW post-image" },
		rule:     oneMoreForward,
		ruleText: "one more forward and no more conflicts or pull rounds: the row's write is refused at the swap and completes as overwritten",
	},
	{
		name: "a lower epoch arriving after",
		interfere: func(c *installCell, row imRow, begin, landed sim.Time) {
			c.cl.Env.SpawnAt(landed+sim.Microsecond, "im-lower", func(p *sim.Proc) {
				if !c.cl.Replicators[c.s].DeliverStaleForwardForTest(p, 0, imKey) {
					c.t.Errorf("the subject holds no record to deliver a stale forward under")
				}
			})
		},
		rule:     func(row imRow, clean, got imCounts) bool { return got == clean },
		ruleText: "nothing moves: rejected, and the rejection names a round nobody has open",
	},
	{
		name:      "duplicate delivery",
		fcfg:      fault.Config{Seed: 1, Dup: 1},
		interfere: func(*installCell, imRow, sim.Time, sim.Time) {},
		rule: func(row imRow, clean, got imCounts) bool {
			return got.forwards == clean.forwards && got.conflicts == clean.conflicts && got.pulls == clean.pulls && repairs(clean, got)
		},
		ruleText: "rounds, conflicts and pull rounds are counted once however often their frames arrive; only the answers multiply",
	},
	{
		// The subject is power-cycled 1 µs before the row's store call would
		// begin: until its recovery scan ends — milliseconds, over 6 MB of SSD —
		// its store refuses every call and its engine drops every frame.
		name: "the store refuses (recovering)", spill: true,
		interfere: func(c *installCell, row imRow, begin, landed sim.Time) {
			c.cl.Env.AtFunc(begin-sim.Microsecond, func() {
				if c.s < len(c.cl.Servers) {
					c.cl.Servers[c.s].Kill(false)
					c.forget(c.s)
					c.cl.Servers[c.s].RestartCold()
				}
			})
		},
		rule:     func(row imRow, clean, got imCounts) bool { return got.forwards <= clean.forwards },
		ruleText: "no round the clean run does not open (an RMW that is refused opens none); what repairs the subject afterwards is the scrubber's business",
	},
	{
		// 500 ns before the row's write lands, a corrupt read at the subject
		// turns the key suspect and opens a pull; a GET joins it. The landing
		// answers the pull — the reader resumes at once, with what landed — and
		// the peers' answers arrive to find nothing left to do.
		name: "the key suspect with a pull open",
		interfere: func(c *installCell, row imRow, begin, landed sim.Time) {
			c.cl.Env.SpawnAt(landed-500*sim.Nanosecond, "im-suspect", func(p *sim.Proc) {
				r := c.cl.Replicators[c.s]
				r.OnCorrupt(p, imKey)
				t0 := p.Now()
				resp := r.Apply(p, &protocol.Request{Op: protocol.OpGet, Key: imKey}, nil)
				if waited := p.Now() - t0; waited > 100*sim.Microsecond {
					c.t.Errorf("the reader parked on the pull waited %v: the landing did not answer it", waited)
				}
				if resp.Status == protocol.StatusOK && !c.wrote(protocol.ValueSum(resp.Value)) {
					c.t.Errorf("the reader was served %v, which nobody wrote", resp.Value)
				}
			})
		},
		rule: func(row imRow, clean, got imCounts) bool {
			return got.forwards == clean.forwards && got.conflicts == clean.conflicts &&
				got.pulls <= clean.pulls+1 && got.pushes >= clean.pushes
		},
		ruleText: "the same rounds; at most one more pull round (none when the row's own is still open), answered by whoever holds the key",
	},
	{
		name: "whole-node kill during the store call",
		interfere: func(c *installCell, row imRow, begin, landed sim.Time) {
			c.cl.Env.SpawnAt((begin+landed)/2, "im-kill", func(p *sim.Proc) {
				c.cl.Servers[c.s].Kill(false)
				c.forget(c.s)
				p.Sleep(300 * sim.Microsecond)
				c.cl.Servers[c.s].RestartCold()
			})
		},
		rule:     func(row imRow, clean, got imCounts) bool { return got.forwards <= clean.forwards },
		ruleText: "no round the clean run does not open; what refills the subject afterwards is the scrubber's business",
	},
	{
		// What the lanes newly allow, one: 2 µs into the subject's store call the
		// coordinator's resend of the same forward arrives — await's, a round
		// early — and a second applier takes it. Both copies pass the judge (the
		// record has not moved yet) and both are in the store at once; the one
		// that reaches the swap second finds the record at its own epoch and is
		// refused there, acked as the duplicate it is: one version, one swap.
		name: "the forward resent while its first copy's store call is suspended on another applier",
		skip: func(row imRow) string {
			if row.pushed() {
				return "a repair push belongs to no round, and a second copy of one waits behind the first on the one background process, as it did on the engine"
			}
			return noLane(row)
		},
		interfere: func(c *installCell, row imRow, begin, landed sim.Time) {
			c.cl.Env.SpawnAt(begin+2*sim.Microsecond, "im-resend", func(p *sim.Proc) {
				subject, st := c.cl.Replicators[c.s], c.cl.Servers[c.s].Store()
				calls, resent := st.SetOps+st.DeleteOps, 0
				for _, r := range c.cl.Replicators {
					if r != subject {
						resent += r.ResendRoundsForTest(subject)
					}
				}
				p.Sleep(100 * sim.Nanosecond)
				if epoch, _, _, _, _ := subject.RecordForTest(imKey); resent != 1 || st.SetOps+st.DeleteOps != calls+1 || epoch == c.epoch {
					c.t.Errorf("the premise: %d rounds resent, %d store calls begun by them, the record at %#x (the row's write lands at %#x)", resent, st.SetOps+st.DeleteOps-calls, epoch, c.epoch)
				}
				// A key swapped in twice for one version would fail a client's cas
				// between its gets and the second swap: every replica has swapped the
				// key in as often as the coordinator, which was sent nothing twice.
				p.Sleep(landed - begin + 100*sim.Microsecond)
				var swaps [3]uint64
				for sid := range swaps {
					_, _, _, swaps[sid], _ = c.cl.Servers[sid].Store().Get(p, imKey)
				}
				if swaps[1] != swaps[0] || swaps[2] != swaps[0] {
					c.t.Errorf("the key's CAS at the three replicas is %v: the resent copy was swapped in again", swaps)
				}
			})
		},
		rule:     func(row imRow, clean, got imCounts) bool { return got == clean },
		ruleText: "nothing moves: the second copy is refused at the swap and acked as a duplicate, and the round takes one ack per peer",
	},
	{
		// Two: a forward is no longer ordered against the same peer's background
		// frames. 2 µs before the row's write reaches the subject, an older
		// version of the key from the same peer — one epoch below the row's —
		// arrives for the other lane: a repair push when the row's write is a
		// forward, a forward when it is a repair push. At twice the size it is
		// still being copied when the row's write lands: first to arrive, last to
		// reach the swap, refused there.
		name: "the peer's older version of the key in the other lane: first to arrive, last to land",
		skip: noLane,
		interfere: func(c *installCell, row imRow, begin, landed sim.Time) {
			c.cl.Env.AtFunc(begin-2*sim.Microsecond, func() {
				older := c.set(2 * imBig)
				c.cl.Replicators[c.s].DeliverWriteForTest(0, imKey, c.epoch-1, older.Value, older.ValueSize, !row.pushed())
			})
		},
		other: func(imRow) bool { return false },
		rule: func(row imRow, clean, got imCounts) bool {
			return got.forwards == clean.forwards && got.conflicts == clean.conflicts && got.pulls == clean.pulls && repairs(clean, got)
		},
		ruleText: "the same rounds, conflicts and pull rounds: the older version is refused, and a refused forward names a round nobody has open",
	},
	{
		// Three: a frame now waits between the engine and the process that runs
		// it. Every process of the lane the row's write comes through is busy —
		// all four appliers, or the one background process — with a write of
		// another key when it arrives; 1 µs later the node is killed, 1 µs after
		// that it restarts cold (the SSD is empty: the scan is over at once), and
		// only then does a process come free. The frame belongs to the dead
		// incarnation, and so do the writes that held the lane.
		name: "whole-node kill and cold restart while the write waits for its lane",
		skip: noLane,
		interfere: func(c *installCell, row imRow, begin, landed sim.Time) {
			env := c.cl.Env
			env.AtFunc(begin-3*sim.Microsecond, func() {
				busy := replication.ApplyPoolForTest
				if row.pushed() {
					busy = 1
				}
				for i := 0; i < busy; i++ {
					c.cl.Replicators[c.s].DeliverWriteForTest(0, fmt.Sprintf("im:busy:%d", i), 0x100, i, 2*imBig, row.pushed())
				}
			})
			env.SpawnAt(begin+sim.Microsecond, "im-kill", func(p *sim.Proc) {
				subject := c.cl.Replicators[c.s]
				if forwards, background := subject.QueuedForTest(); forwards+background == 0 {
					c.t.Errorf("the premise: nothing is waiting for a lane at the subject")
				}
				c.cl.Servers[c.s].Kill(false)
				c.forget(c.s)
				p.Sleep(sim.Microsecond)
				c.cl.Servers[c.s].RestartCold()
				p.Sleep(landed - begin + 120*sim.Microsecond)
				forwards, background := subject.QueuedForTest()
				if c.cl.Servers[c.s].Recovering() || forwards+background != 0 {
					c.t.Errorf("the premise: by now the node is back (recovering: %v) and the lanes have caught up (%d + %d waiting)", c.cl.Servers[c.s].Recovering(), forwards, background)
				}
				if epoch, _, _, suspect, _ := subject.RecordForTest(imKey); epoch != 0 && !suspect {
					c.t.Errorf("%v into the new incarnation, before any resend or scrub round, the key is confirmed at %#x: a write of the dead one was installed", p.Now()-begin, epoch)
				}
			})
		},
		rule:     func(row imRow, clean, got imCounts) bool { return got.forwards <= clean.forwards },
		ruleText: "no round the clean run does not open; what refills the subject afterwards is the scrubber's business",
	},
}

// repairs states the part every column but the clean one shares: repair pushes
// happen only in a row whose clean run has them, and then no fewer.
func repairs(clean, got imCounts) bool {
	if clean.pushes == 0 {
		return got.pushes == 0
	}
	return got.pushes >= clean.pushes
}

// oneMoreForward is the rule of a column that adds one coordinated write.
func oneMoreForward(row imRow, clean, got imCounts) bool {
	return got.forwards == clean.forwards+1 && got.conflicts == clean.conflicts && got.pulls == clean.pulls && repairs(clean, got)
}

func (c *installCell) wrote(sum uint64) bool {
	for _, s := range c.issued {
		if s == sum {
			return true
		}
	}
	return false
}

// run starts the row's action at c.start under the column's interference and
// runs the cell out. With clock set it also times the subject: when the row's
// store call begins and when the subject's record moves.
func (c *installCell) run(row imRow, clock bool) (begin, landed sim.Time) {
	env := c.cl.Env
	c.watch()
	env.SpawnAt(c.start, "im-act", func(p *sim.Proc) { row.act(p, c) })
	if clock {
		env.SpawnAt(c.start, "im-clock", func(p *sim.Proc) {
			var ops0 int64
			var was [4]any
			record := func() [4]any {
				epoch, sum, del, suspect, _ := c.cl.Replicators[c.s].RecordForTest(imKey)
				return [4]any{epoch, sum, del, suspect}
			}
			if c.s < len(c.cl.Servers) {
				st := c.cl.Servers[c.s].Store()
				ops0 = st.SetOps + st.DeleteOps
			}
			for ; landed == 0 && p.Now() < c.start+20*sim.Millisecond; p.Sleep(20 * sim.Nanosecond) {
				if c.s >= len(c.cl.Servers) {
					continue // the joiner is not built yet
				}
				st := c.cl.Servers[c.s].Store()
				switch {
				case begin == 0 && st.SetOps+st.DeleteOps-ops0 >= row.storeCall:
					begin, was = p.Now(), record()
				case begin != 0 && record() != was:
					landed, c.epoch = p.Now(), record()[0].(uint64)
				}
			}
		})
	}
	env.RunUntil(c.start + imRun)
	return begin, landed
}

// audit is the one assertion list, applied when the cell has run out.
func (c *installCell) audit(row imRow, col imCol, clean imCounts) {
	t, cl := c.t, c.cl
	t.Helper()
	for sid, s := range cl.Servers {
		if s.Recovering() {
			t.Fatalf("server %d is still recovering", sid)
		}
	}
	// Every replica of the key holds one (epoch, sum), confirmed, and the value
	// in its store is the one the record names; a server that is no replica
	// (any more) holds neither.
	replica := map[int]bool{}
	for _, id := range cl.Membership.Ring().Replicas(imKey, 3) {
		replica[id] = true
	}
	var final imWrite
	var finalDel bool
	var finalSize int
	cl.Env.Spawn("im-audit", func(p *sim.Proc) {
		first := true
		for sid, r := range cl.Replicators {
			epoch, sum, del, suspect, ok := r.RecordForTest(imKey)
			v, size, _, _, held := cl.Servers[sid].Store().ReadItem(p, imKey)
			switch {
			case !replica[sid]:
				if ok || held {
					t.Errorf("server %d is no replica of the key and holds a record (%v) or a value (%v)", sid, ok, held)
				}
				continue
			case !ok || suspect || epoch == 0:
				t.Errorf("server %d: record present=%v suspect=%v epoch=%#x at quiescence", sid, ok, suspect, epoch)
				continue
			case del && held:
				t.Errorf("server %d records a tombstone at %#x and its store holds %v", sid, epoch, v)
			case !del && (!held || protocol.ValueSum(v) != sum):
				t.Errorf("server %d records %#x/%#x and its store holds %v (present=%v)", sid, epoch, sum, v, held)
			}
			if first {
				final, finalDel, finalSize, first = imWrite{epoch, sum}, del, size, false
			} else if (imWrite{epoch, sum}) != final || del != finalDel {
				t.Errorf("server %d records %#x/%#x del=%v, another replica %#x/%#x del=%v", sid, epoch, sum, del, final.epoch, final.sum, finalDel)
			}
		}
	})
	cl.Env.RunUntil(cl.Env.Now() + sim.Millisecond)
	if col.other != nil && col.other(row) != (finalSize == imSmall) {
		t.Errorf("the replicas hold a value of %d bytes (tombstone: %v): the column's own write won = %v, want %v", finalSize, finalDel, finalSize == imSmall, col.other(row))
	}
	// What the replicas hold is something somebody wrote, and no write that was
	// answered STORED or DELETED lost to a lower epoch.
	if !finalDel && !c.wrote(final.sum) {
		t.Errorf("the replicas hold content %#x, which nobody wrote", final.sum)
	}
	for _, w := range c.acked {
		if w.epoch > final.epoch || (w.epoch == final.epoch && w.sum != final.sum) {
			t.Errorf("the write acked at %#x/%#x is neither what the replicas hold (%#x/%#x) nor below it", w.epoch, w.sum, final.epoch, final.sum)
		}
	}
	total := cl.ReplicationCounters()
	for sid, r := range cl.Replicators {
		if stale, _ := r.StaleDigestsForTest(); len(stale) > 0 {
			t.Errorf("server %d's maintained digests for peers %v have drifted from a recompute", sid, stale)
		}
		if f, pl, w := r.OpenForwardsForTest(), r.OpenPullsForTest(), r.OpenWantsForTest(); f+pl+w > 0 {
			t.Errorf("server %d is left with %d rounds, %d pulls and %d migration wants open", sid, f, pl, w)
		}
	}
	// Nothing in any cell corrupts a value, in flight or at rest.
	for _, name := range []string{"scrub-corruptions-found", "scrub-corruptions-repaired", "corrupt-frames-rejected"} {
		if n := total.Get(name); n != 0 {
			t.Errorf("%s = %d", name, n)
		}
	}
	if got := c.moved(); !col.rule(row, clean, got) {
		t.Errorf("counters: %v; the clean run's: %v; the column's rule: %s", got, clean, col.ruleText)
	}
}

func TestInstallMatrix(t *testing.T) {
	for _, row := range imRows {
		t.Run(row.name, func(t *testing.T) {
			// The clean run is the clock the columns set their interference by;
			// the spilled fixture keeps its own.
			type clock struct {
				begin, landed sim.Time
				counts        imCounts
				epoch         uint64
			}
			clocks := map[bool]clock{}
			for _, spill := range []bool{false, true} {
				c := newInstallCell(t, row.s, fault.Config{}, spill)
				begin, landed := c.run(row, true)
				if begin == 0 || landed == 0 {
					t.Fatalf("clean run (spill=%v): the row's store call at server %d began at %v and landed at %v", spill, row.s, begin, landed)
				}
				clocks[spill] = clock{begin, landed, c.moved(), c.epoch}
			}
			for _, col := range imCols {
				t.Run(col.name, func(t *testing.T) {
					if col.skip != nil {
						if why := col.skip(row); why != "" {
							t.Skip(why)
						}
					}
					c := newInstallCell(t, row.s, col.fcfg, col.spill)
					clk := clocks[col.spill]
					c.epoch = clk.epoch
					col.interfere(c, row, clk.begin, clk.landed)
					c.run(row, false)
					c.audit(row, col, clk.counts)
				})
			}
		})
	}
}
