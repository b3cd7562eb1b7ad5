package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"hybridkv/internal/metrics"
	"hybridkv/internal/pool"
	"hybridkv/internal/protocol"
	"hybridkv/internal/server"
	"hybridkv/internal/sim"
	"hybridkv/internal/simnet"
	"hybridkv/internal/store"
)

// poolFaults drops, duplicates, bit-flips and delays messages in both
// directions — requests, answers, BufferAcks, READs — from a seeded stream.
type poolFaults struct {
	rng *rand.Rand
	off bool
}

func (f *poolFaults) Transmit(src, dst string, size int, now sim.Time) simnet.Verdict {
	if f.off {
		return simnet.Verdict{}
	}
	switch f.rng.Intn(16) {
	case 0:
		return simnet.Verdict{Drop: true}
	case 1:
		return simnet.Verdict{Duplicate: true}
	case 2:
		return simnet.Verdict{Corrupt: true}
	case 3:
		return simnet.Verdict{Duplicate: true, Corrupt: true}
	case 4:
		return simnet.Verdict{ExtraDelay: sim.Time(f.rng.Intn(80)) * sim.Microsecond}
	}
	return simnet.Verdict{}
}

// poolOp is one planned operation of the pooled-request soak: op on its own
// key, issued through opts.
type poolOp struct {
	op       Op
	opts     []IssueOption
	buffered bool // a buffered socket Set: complete as queued
}

// poolValue is the one value any SET of key ever carries.
func poolValue(key string) string { return "v:" + key }

// TestPooledRequestsUnderFaults runs GETs, SETs and CASes, each on its own
// key, from four concurrent callers that release every request once they
// have read it — with a deadline, with retry and failover, with a hedge,
// with a BufferAck; bypass hits and fallbacks, BeginBatch frames, half-open
// breaker probes — through a fabric that drops, duplicates, corrupts and
// delays messages both ways, against two servers one of which stalls its
// storage workers past the deadline, on both transports. Request records are
// recycled throughout, so a holder that lets go too early shows as:
//
//   - an answer that is not the request's own: a handle whose key or opcode
//     changed under its caller, a SET not STORED, a GET whose value is
//     another key's, a CAS that did not fail (its token matches nothing);
//   - a server applying a message read out of a record already reused: every
//     key any server stores must hold the one value issued for it, and every
//     SET the server acknowledged or answered STORED must be stored;
//   - a BufferAck'ed Issue returning before its message has left;
//   - at quiesce, a record the census cannot account for: neither free nor
//     kept for good by a message the server never answered, or kept with a
//     hold beside that message's, or kept though its first attempt was
//     answered or never sent.
func TestPooledRequestsUnderFaults(t *testing.T) {
	for _, tr := range []struct {
		name      string
		transport Transport
	}{{"rdma", RDMA}, {"ipoib", IPoIB}} {
		t.Run(tr.name, func(t *testing.T) { poolSoak(t, tr.transport) })
	}
}

func poolSoak(t *testing.T, transport Transport) {
	const (
		workers   = 4
		perWorker = 150
		deadline  = 150 * sim.Microsecond
	)
	rdma := transport == RDMA
	r := newTestRig(rigOpts{transport: transport, pipeline: server.Async, servers: 2,
		clientCfg: func(c *Config) {
			c.Breaker = 2
			c.Bypass = rdma
		}})
	if rdma {
		for _, srv := range r.servers {
			srv.AttachBypassDirectory(store.NewDirectory(srv.Device().AllocPD(), 0))
		}
		// Server 0's workers stall past the deadline for 150 µs of every
		// millisecond: what they hold then is answered — or acknowledged and
		// applied — only after its request has timed out.
		for ms := 1; ms < 40; ms++ {
			from := sim.Time(ms) * sim.Millisecond
			r.servers[0].AddWorkerStall(from, from+150*sim.Microsecond, 2*deadline)
		}
	}
	c := r.client
	faults := &poolFaults{rng: rand.New(rand.NewSource(42))}

	retry := []IssueOption{WithDeadline(deadline), WithRetry(RetryPolicy{
		MaxAttempts: 4, AttemptTimeout: 40 * sim.Microsecond, Jitter: -1, Failover: true,
	})}
	plan := func(w, i int) poolOp {
		key := fmt.Sprintf("w%d-%d", w, i)
		po := poolOp{op: Op{Code: protocol.OpGet, Key: key}}
		switch i % 3 {
		case 1:
			po.op = Op{Code: protocol.OpSet, Key: key, ValueSize: 64, Value: poolValue(key)}
		case 2:
			po.op = Op{Code: protocol.OpCAS, Key: key, ValueSize: 64, Value: "stale", CAS: math.MaxUint64}
		}
		switch i / 3 % 4 {
		case 0:
			po.opts = []IssueOption{WithDeadline(deadline)}
		case 1:
			po.opts = retry
		case 2:
			po.opts = []IssueOption{WithDeadline(deadline), WithHedge(15 * sim.Microsecond)}
		default:
			po.opts = []IssueOption{WithDeadline(deadline), WithReadPath(ReadRPC)}
			if po.op.Code == protocol.OpSet {
				po.opts = append(po.opts, WithBufferAck())
			}
		}
		return po
	}

	ops := 0
	seen := make(map[*Req]poolOp) // every record handed out, by its latest request
	mustStore := make(map[string]bool)
	check := func(po poolOp, req *Req) {
		op := po.op
		if req.Key() != op.Key || req.Op != op.Code {
			t.Errorf("%v %s came back as %v %s", op.Code, op.Key, req.Op, req.Key())
			return
		}
		if req.Acked() && op.Code == protocol.OpSet {
			mustStore[op.Key] = true
		}
		if req.TimedOut() {
			return
		}
		ok := false
		switch op.Code {
		case protocol.OpGet:
			ok = req.Status == protocol.StatusNotFound || req.Status == protocol.StatusOK && req.Value == poolValue(op.Key)
		case protocol.OpSet:
			ok = req.Status == protocol.StatusStored
			if ok && !po.buffered {
				mustStore[op.Key] = true
			}
		case protocol.OpCAS:
			ok = req.Status == protocol.StatusExists || req.Status == protocol.StatusNotFound
		}
		if !ok {
			t.Errorf("%v %s: answered %v %v after %d attempts", op.Code, op.Key, req.Status, req.Value, req.Attempts)
		}
	}
	issue := func(p *sim.Proc, po poolOp) *Req {
		req, err := c.Issue(p, po.op, po.opts...)
		if err != nil {
			t.Fatalf("issue %s: %v", po.op.Key, err)
		}
		if rdma && !c.batching && po.op.Code == protocol.OpSet && !req.Done() &&
			req.opts.ack && req.first.state != attSent && req.first.state != attAcked {
			t.Errorf("SET %s: BufferAck'ed Issue returned with its message still queued", po.op.Key)
		}
		return req
	}

	sim.Drive(t, r.env, "preload", func(p *sim.Proc) {
		for w := 0; w < workers; w++ {
			for i := 0; i < perWorker; i++ {
				if po := plan(w, i); po.op.Code != protocol.OpSet {
					c.Set(p, po.op.Key, 64, poolValue(po.op.Key), 0, 0)
				}
			}
		}
	})
	r.fabric.SetFaults(faults)
	callers := make([]sim.Driver, workers)
	for w := range callers {
		callers[w] = sim.Driver{Name: "caller", Fn: func(p *sim.Proc) {
			// Worker 0 issues in windows of four, framed on RDMA; worker 1 in
			// windows of four; the others one at a time.
			window := 1
			if w < 2 {
				window = 4
			}
			for base := 0; base < perWorker; base += window {
				framed := rdma && w == 0
				if framed {
					if err := c.BeginBatch(); err != nil {
						t.Fatal(err)
					}
				}
				var reqs []*Req
				var pos []poolOp
				for i := base; i < base+window && i < perWorker; i++ {
					po := plan(w, i)
					reqs = append(reqs, issue(p, po))
					pos = append(pos, po)
				}
				if framed {
					if err := c.Flush(p); err != nil {
						t.Fatal(err)
					}
				}
				c.WaitAll(p, reqs)
				for k, req := range reqs {
					check(pos[k], req)
					seen[req] = pos[k]
					ops++
					c.Release(req)
				}
				p.Sleep(20 * sim.Microsecond)
			}
		}}
	}
	sim.DriveUntil(t, r.env, -1, callers...)

	// The fabric heals. A socket client then buffers Sets, libmemcached
	// style: each is complete as queued and released at once, and the queue
	// holds its record until the server has answered it — which a late reply
	// of the faulty phase, still in the stream, can keep it from matching.
	faults.off = true
	if !rdma {
		sim.Drive(t, r.env, "buffered", func(p *sim.Proc) {
			if err := c.SetBuffering(true); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("b-%d", i)
				po := poolOp{op: Op{Code: protocol.OpSet, Key: key, ValueSize: 64, Value: poolValue(key)}, buffered: true}
				req := issue(p, po)
				check(po, req)
				seen[req] = po
				ops++
				c.Release(req)
				if i%10 == 9 {
					c.FlushBuffers(p)
				}
			}
			if err := c.SetBuffering(false); err != nil {
				t.Fatal(err)
			}
		})
	}

	// Quiesce: a socket's late replies are drained by one clean exchange per
	// connection, and every server's store is read back.
	stored := make(map[string]bool)
	sim.Drive(t, r.env, "audit", func(p *sim.Proc) {
		for _, cn := range c.conns {
			if !rdma {
				c.Release(c.ipoibExchange(p, cn, Op{Code: protocol.OpGet, Key: "drain"}, c.newReq()))
			}
		}
		for _, srv := range r.servers {
			st := srv.Store()
			for _, key := range st.Keys() {
				v, _, _, _, status := st.Get(p, key)
				if status != protocol.StatusOK {
					continue
				}
				if v != poolValue(key) {
					t.Errorf("server stores %s = %v, a value never issued for it", key, v)
				}
				stored[key] = true
			}
		}
	})
	for key := range mustStore {
		if !stored[key] {
			t.Errorf("SET %s was acknowledged or answered STORED, and no server stores it", key)
		}
	}

	if err := r.census().Err(); err != nil {
		t.Error(err)
	}
	for req, po := range seen {
		if pool.Holders(req) < 0 {
			continue // free
		}
		// Kept for good: the record was not reused, so it describes its last
		// request. Its one hold must be its message's, which a server may
		// still read: sent, and the request ended some other way than on the
		// first attempt's answer — or, buffered, never matched to one.
		sent := !rdma || req.first.wire.RespMR != 0
		unanswered := req.TimedOut() || req.Attempts > 1 || po.buffered
		if !req.released || pool.Holders(req) != 1 || !sent || !unanswered {
			t.Errorf("%v %s: released=%v, %d holds, sent=%v, ended %v after %d attempts, and not free",
				po.op.Code, po.op.Key, req.released, pool.Holders(req), sent, req.Err(), req.Attempts)
		}
	}
	if len(seen) >= ops*3/4 {
		t.Errorf("%d operations used %d request records: the free list is not reused", ops, len(seen))
	}
	t.Logf("%d operations on %d request records, %d of them held for good", ops, len(seen), len(c.kept))

	// The soak drove what it claims to.
	v := c.Counters.Val
	want := []metrics.Counter{metrics.CRetries, metrics.CTimeouts, metrics.CBreakerHalfOpen}
	if rdma {
		want = append(want, metrics.CFailovers, metrics.CHedges, metrics.CFrames, metrics.CBypassHits,
			metrics.CBypassFallbacks)
		if r.servers[0].Stalled == 0 {
			t.Error("no storage task was stalled")
		}
	}
	for _, ctr := range want {
		if v(ctr) == 0 {
			t.Errorf("the soak drove no %v", ctr)
		}
	}
}

// TestRecordOutlivesALateHedge releases a request while the TX engine is
// still posting its hedge: a GET whose hedge to the second server waits on
// the client's NIC behind a 256 KB SET, and whose primary answers meanwhile.
// The TX engine holds the record until its post is done — it fires the
// request's buffer-reusable event at DMA-sent — so the BufferAck'ed SET issued
// right after, queued behind the hedge on the second server's connection,
// gets a record of its own and returns only once its message has left; and
// the released record, once free, has not been touched.
func TestRecordOutlivesALateHedge(t *testing.T) {
	r := newTestRig(rigOpts{transport: RDMA, pipeline: server.Async, servers: 2})
	c := r.client
	on := func(srv int, prefix string) string {
		for i := 0; ; i++ {
			if key := fmt.Sprintf("%s%d", prefix, i); c.ring.Pick(key) == srv {
				return key
			}
		}
	}
	get, big, next := on(0, "get"), on(0, "big"), on(1, "next")
	sim.Drive(t, r.env, "driver", func(p *sim.Proc) {
		c.Set(p, get, 64, "v", 0, 0)
		r.env.Spawn("bulk", func(p *sim.Proc) {
			bulk, _ := c.Issue(p, Op{Code: protocol.OpSet, Key: big, ValueSize: 256 << 10, Value: "big"})
			c.Wait(p, bulk)
			c.Release(bulk)
		})
		req, _ := c.Issue(p, Op{Code: protocol.OpGet, Key: get}, WithHedge(sim.Microsecond))
		c.Wait(p, req)
		if req.Status != protocol.StatusOK || req.Attempts != 2 || pool.Holders(req) != 2 {
			t.Fatalf("GET: %v after %d attempts, %d holds; want OK after 2, held by its caller and the TX engine",
				req.Status, req.Attempts, pool.Holders(req))
		}
		c.Release(req)
		set, _ := c.Issue(p, Op{Code: protocol.OpSet, Key: next, ValueSize: 64, Value: "v"}, WithBufferAck())
		if set == req || set.first.state == attQueued {
			t.Errorf("a BufferAck'ed SET returned from Issue with its message queued (on the GET's record: %v)", set == req)
		}
		c.Wait(p, set)
		c.Release(set)
		// Two requests in flight at once take both free records.
		a, _ := c.Issue(p, Op{Code: protocol.OpGet, Key: next})
		b, _ := c.Issue(p, Op{Code: protocol.OpGet, Key: get})
		if c.WaitAll(p, []*Req{a, b}) != nil || a.Value != "v" || b.Value != "v" {
			t.Errorf("GETs on recycled records: %v %v, %v %v", a.Status, a.Value, b.Status, b.Value)
		}
		c.Release(a)
		c.Release(b)
	})
}

// dupOnce duplicates the next message the client sends once armed.
type dupOnce struct{ armed bool }

func (d *dupOnce) Transmit(src, dst string, size int, now sim.Time) simnet.Verdict {
	if !d.armed || !strings.HasPrefix(src, "client") {
		return simnet.Verdict{}
	}
	d.armed = false
	return simnet.Verdict{Duplicate: true}
}

// TestDuplicateOutlivesItsAnswer duplicates a SET on its way to a server with
// one storage worker that stalls every task it takes, so the second copy is
// read only after the first has been answered and the request released: its
// record is back on the free list by then, zeroed. The fabric delivers each
// copy of a duplicated request as a copy of the bytes sent, never the
// sender's record, so the second copy still applies the SET that was issued
// and its answer comes back stale.
func TestDuplicateOutlivesItsAnswer(t *testing.T) {
	r := newTestRig(rigOpts{transport: RDMA, pipeline: server.Async,
		serverCfg: func(cfg *server.Config) { cfg.StorageWorkers = 1 }})
	srv, c := r.servers[0], r.client
	srv.AddWorkerStall(0, sim.Second, 50*sim.Microsecond)
	dup := &dupOnce{}
	r.fabric.SetFaults(dup)
	var held bool
	sim.Drive(t, r.env, "driver", func(p *sim.Proc) {
		dup.armed = true
		req, _ := c.Issue(p, Op{Code: protocol.OpSet, Key: "k", ValueSize: 64, Value: "v"})
		c.Wait(p, req)
		if req.Status != protocol.StatusStored {
			t.Errorf("SET answered %v", req.Status)
		}
		c.Release(req)
		held = pool.Holders(req) >= 0
	})
	if held {
		t.Fatal("the answered SET's record was not freed on release")
	}
	if srv.Requests != 2 || c.Counters.Val(metrics.CStaleResponses) != 1 {
		t.Errorf("%d requests reached the server and %d stale answers came back, want 2 and 1",
			srv.Requests, c.Counters.Val(metrics.CStaleResponses))
	}
	sim.Drive(t, r.env, "audit", func(p *sim.Proc) {
		if v, _, _, _, st := srv.Store().Get(p, "k"); st != protocol.StatusOK || v != "v" || srv.Store().Len() != 1 {
			t.Errorf("server stores k = %v (%v) among %d keys, want v alone", v, st, srv.Store().Len())
		}
	})
}
