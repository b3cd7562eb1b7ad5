package replication_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"hybridkv/internal/cluster"
	"hybridkv/internal/core"
	"hybridkv/internal/fault"
	"hybridkv/internal/history"
	"hybridkv/internal/metrics"
	"hybridkv/internal/protocol"
	"hybridkv/internal/server"
	"hybridkv/internal/sim"
)

// TestPooledFramesUnderFaults runs SETs, GETs, CAS chains and a counter on a
// few keys of an R=3 cluster, with the scrubber and read repair on, through a
// fabric that drops, duplicates and corrupts messages in flight, cuts one
// server off for a while and sees another killed — with writes queued for its
// storage workers — and cold-restarted. Frames
// and rounds come off the replicators' free lists and go back on their last
// hold: one recycled under a holder would apply, ack or probe another key's
// write, or panic where a hold or drop of a free record happens.
//
// Each SET key has one writer and each CAS key one chain, so a write's
// sequence number orders it; a SET writer whose write fails leaves its key
// alone, since the failed write may still land after any later one. Every
// value names its key, and the history must come out clean. Once the run is
// quiet, the census finds every round and every frame back on its list —
// the frames the fabric dropped a post of too — and no round is left in a
// replicator's table. No two spare slices the frames gave back share an
// array.
func TestPooledFramesUnderFaults(t *testing.T) {
	const (
		setKeys = 3
		casKeys = 2
		rounds  = 120
		stride  = 8 // a value is seq*stride + its key's index: it names its key
	)
	cl := cluster.New(cluster.Config{
		Design:            cluster.HRDMAOptNonBI,
		Profile:           cluster.ClusterA(),
		Servers:           3,
		Clients:           2,
		ServerMem:         8 << 20,
		ReplicationFactor: 3,
	})
	defer cl.Env.Close()
	inj := fault.New(fault.Config{Seed: 47, Drop: 0.02, Dup: 0.05})
	inj.AddCorrupt(47, 0.05)
	inj.AddLinkDown("server1", 2*sim.Millisecond, 3*sim.Millisecond)
	cl.Fabric.SetFaults(inj)

	opts := []core.IssueOption{core.WithDeadline(200 * sim.Millisecond), core.WithRetry(core.RetryPolicy{
		MaxAttempts: 40, AttemptTimeout: 2 * sim.Millisecond,
		Backoff: 100 * sim.Microsecond, MaxBackoff: sim.Millisecond, Jitter: -1, Failover: true,
	})}
	do := func(p *sim.Proc, c *core.Client, op core.Op) *core.Req {
		req, err := c.Issue(p, op, opts...)
		if err != nil {
			t.Fatalf("issue %v %s: %v", op.Code, op.Key, err)
		}
		c.Wait(p, req)
		return req
	}
	key := func(i int) string { return fmt.Sprintf("pf:%d", i) }
	log := &history.Log{Replicated: true}
	// read GETs key ki and records what it saw; it returns the CAS token of a
	// hit and whether there was one.
	read := func(p *sim.Proc, c *core.Client, w, ki int) (uint64, bool) {
		t0 := p.Now()
		req := do(p, c, core.Op{Code: protocol.OpGet, Key: key(ki)})
		err, cas := req.Err(), req.CAS
		v, _ := req.Value.(uint64)
		c.Release(req)
		if err == nil && v%stride != uint64(ki) {
			t.Errorf("GET %s answered %d, a value of %s", key(ki), v, key(int(v%stride)))
		}
		log.Record(history.Entry{Worker: w, Kind: history.Read, Key: key(ki), Seq: v / stride,
			Hit: err == nil, OK: err == nil || errors.Is(err, core.ErrNotFound), IssuedAt: t0, CompletedAt: p.Now()})
		return cas, err == nil
	}
	write := func(p *sim.Proc, c *core.Client, w, ki int, op core.Op, seq uint64) error {
		t0 := p.Now()
		op.Key, op.ValueSize, op.Value = key(ki), itValue, seq*stride+uint64(ki)
		req := do(p, c, op)
		err := req.Err()
		log.Record(history.Entry{Worker: w, Kind: history.Write, Key: key(ki), Seq: seq, OK: err == nil,
			Acked: req.Acked() && (err == nil || errors.Is(err, core.ErrDeadlineExceeded)), IssuedAt: t0, CompletedAt: p.Now()})
		c.Release(req)
		return err
	}
	running := 0
	worker := func(name string, fn func(p *sim.Proc)) {
		running++
		cl.Env.Spawn(name, func(p *sim.Proc) {
			defer func() { running-- }()
			fn(p)
		})
	}
	think := func(p *sim.Proc, rng *rand.Rand) { p.Sleep(sim.Time(rng.Intn(20)) * sim.Microsecond) }
	for ki := 0; ki < setKeys; ki++ {
		w, c := ki, cl.Clients[ki%2]
		worker("pf-set", func(p *sim.Proc) {
			rng := rand.New(rand.NewSource(int64(w)))
			for seq := uint64(1); seq <= rounds; seq++ {
				if write(p, c, w, ki, core.Op{Code: protocol.OpSet}, seq) != nil {
					return
				}
				think(p, rng)
			}
		})
	}
	for j := 0; j < casKeys; j++ {
		w, ki, c := setKeys+j, setKeys+j, cl.Clients[j%2]
		worker("pf-cas", func(p *sim.Proc) {
			rng := rand.New(rand.NewSource(int64(w)))
			for seq := uint64(1); seq <= rounds; seq++ {
				op := core.Op{Code: protocol.OpAdd}
				if cas, hit := read(p, c, w, ki); hit {
					op = core.Op{Code: protocol.OpCAS, CAS: cas}
				}
				write(p, c, w, ki, op, seq)
				think(p, rng)
			}
		})
	}
	const ctr = "pf:ctr"
	worker("pf-incr", func(p *sim.Proc) {
		c, w := cl.Clients[0], setKeys+casKeys
		seed := core.Op{Code: protocol.OpSet, Key: ctr, ValueSize: core.CounterSize, Value: uint64(0)}
		c.Release(do(p, c, seed))
		for range rounds {
			t0 := p.Now()
			req := do(p, c, core.Op{Code: protocol.OpIncr, Key: ctr, Delta: 1})
			err := req.Err()
			v, _ := req.Value.(uint64)
			c.Release(req)
			log.Record(history.Entry{Worker: w, Kind: history.IncrOp, Key: ctr, Seq: v, OK: err == nil, IssuedAt: t0, CompletedAt: p.Now()})
			if errors.Is(err, core.ErrNotFound) {
				c.Release(do(p, c, seed)) // the cold restart lost the counter: re-seed
			}
		}
	})
	for i := range cl.Clients {
		c, w := cl.Clients[i], setKeys+casKeys+1+i
		worker("pf-get", func(p *sim.Proc) {
			rng := rand.New(rand.NewSource(int64(w)))
			for range 2 * rounds {
				read(p, c, w, rng.Intn(setKeys+casKeys))
				think(p, rng)
			}
		})
	}
	// The killed server's storage workers stall just before the kill, so
	// writes it admitted are still queued when it dies: discarded, they give
	// their rounds back.
	cl.Servers[2].AddWorkerStall(3800*sim.Microsecond, 4*sim.Millisecond, 300*sim.Microsecond)
	cl.Env.Spawn("pf-kill", func(p *sim.Proc) {
		p.Sleep(4 * sim.Millisecond)
		from := p.Now()
		cl.Servers[2].Outage(p, server.KillRAM, 300*sim.Microsecond)
		log.CrashWindow(from, p.Now())
	})
	cl.Env.Run()

	if running > 0 {
		t.Fatalf("the run went idle with %d workers unfinished", running)
	}
	for _, v := range log.Check() {
		t.Error(v)
	}
	total := cl.ReplicationCounters()
	if inj.Drops == 0 || inj.Dups == 0 || inj.Corrupts == 0 || inj.LinkDrops == 0 {
		t.Errorf("faults: %d messages dropped, %d duplicated, %d corrupted, %d link drops; want some of each",
			inj.Drops, inj.Dups, inj.Corrupts, inj.LinkDrops)
	}
	if total.Val(metrics.CScrubRounds) == 0 || total.Val(metrics.CForwardResends) == 0 || total.Val(metrics.CCorruptFramesRejected) == 0 {
		t.Errorf("scrub rounds %d, forward resends %d, corrupt frames rejected %d: want each path run",
			total.Val(metrics.CScrubRounds), total.Val(metrics.CForwardResends), total.Val(metrics.CCorruptFramesRejected))
	}
	if err := cl.Census().Err(); err != nil {
		t.Error(err)
	}
	for sid, r := range cl.Replicators {
		if n := r.OpenForwardsForTest(); n != 0 {
			t.Errorf("server %d: %d rounds still registered", sid, n)
		}
	}
	// Every spare slice a replicator keeps for its next digest, diff or
	// manifest is its own: one array twice on the stacks would be filled by
	// two frames at once. A spare still carried by a frame that nobody gave
	// back would show above as a frame the census cannot account for.
	spares := 0
	for sid, r := range cl.Replicators {
		n, alias := r.SpareAliasForTest()
		if alias != "" {
			t.Errorf("server %d: %s", sid, alias)
		}
		spares += n
	}
	if spares == 0 {
		t.Error("no spare digest or diff slice at quiesce: the audit saw nothing")
	}

	// A forward corrupted in flight: the copy delivered counts no holds, the
	// receiver rejects it, and the original goes back on its sender's list.
	from, to := cl.Replicators[0], cl.Replicators[1]
	rejected := to.Counters.Val(metrics.CCorruptFramesRejected)
	if n := from.GarbleForwardForTest(to, key(0)); n != 0 {
		t.Errorf("the corrupted copy of a forward counts %d holds, want none", n)
	}
	cl.Env.Run()
	if got := to.Counters.Val(metrics.CCorruptFramesRejected) - rejected; got != 1 {
		t.Errorf("%d corrupted forwards rejected, want 1", got)
	}
	if err := cl.Census().Err(); err != nil {
		t.Errorf("after the corrupted forward: %v", err)
	}
}
