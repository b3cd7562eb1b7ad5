package core

import (
	"errors"
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
//   - at quiesce, a record the census cannot account for: a released request
//     record that is not free; an attempt neither free nor kept by a message
//     the server never answered, or kept with a hold beside that message's,
//     or kept though it was never sent or its request was answered on it.
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
	// Requests answered on their first attempt, by key — each operation has
	// its own, and its attempts carry it: the server has done with that
	// attempt's message, so it must not be kept.
	answered := make(map[string]poolOp)
	check := func(po poolOp, req *Req) {
		op := po.op
		if !req.TimedOut() && req.Attempts == 1 && !po.buffered {
			answered[op.Key] = po
		}
		if req.Op != op.Code {
			t.Errorf("%v %s came back as %v", op.Code, op.Key, req.Op)
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
			req.first().wire.AckWanted && req.first().state != attSent && req.first().state != attAcked {
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
				c.Release(c.ipoibExchange(p, cn, Op{Code: protocol.OpGet, Key: "drain"}, c.newReq(), 0, nil))
			}
		}
		for _, srv := range r.servers {
			st := srv.Store()
			for _, k := range st.Keys() {
				key := k.Str
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
		if pool.Holders(req) >= 0 {
			t.Errorf("%v %s: released, ended %v after %d attempts, and its record is not free (%d holds)",
				po.op.Code, po.op.Key, req.Err(), req.Attempts, pool.Holders(req))
		}
	}
	// Kept for good: an attempt whose message a server may still read — sent
	// (on RDMA its message names the response region) and never answered,
	// or sent more than once on a socket, or buffered and never matched to
	// an answer. It forgot its request when the request ended, its one hold
	// is its message's, and its request was not answered on it.
	for id, att := range c.kept {
		if att.req != nil || att.state != attSettled || rdma && att.wire.RespMR == 0 || pool.Holders(att) != 1 || id != att.wire.ReqID {
			t.Errorf("kept attempt %d (%v %s): request forgotten %v, state %d, RespMR %d, %d holds, kept as %d",
				att.wire.ReqID, att.wire.Op, att.wire.Key, att.req == nil, att.state, att.wire.RespMR, pool.Holders(att), id)
		}
		if po, ok := answered[att.wire.Key]; ok {
			t.Errorf("%v %s: answered on its first attempt, which is kept for good", po.op.Code, po.op.Key)
		}
	}
	if len(seen) >= ops*3/4 {
		t.Errorf("%d operations used %d request records: the free list is not reused", ops, len(seen))
	}
	t.Logf("%d operations on %d request records and %d attempts, %d attempts held for good",
		ops, len(seen), c.attempts.Made, len(c.kept))

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
// The hedge's attempt record outlives its request: the TX engine holds it
// until its post is done — it fires the request's buffer-reusable event at
// DMA-sent, if the request is still in flight — and its message, on its way,
// keeps it until the second server's late answer hands it back. The request
// record does not: its caller alone holds it,
// and it is free the moment it is released. So the BufferAck'ed SET issued
// right after, queued behind the hedge on the second server's connection,
// gets that very record and must still return only once its own message has
// left: the hedge's late DMA-sent fires nothing of it, as the GET's
// attempts name no request once it has ended.
func TestRecordOutlivesALateHedge(t *testing.T) {
	r := newTestRig(rigOpts{transport: RDMA, pipeline: server.Async, servers: 2})
	c := r.client
	on := func(srv int, prefix string) string {
		for i := 0; ; i++ {
			if key := fmt.Sprintf("%s%d", prefix, i); c.ring.Pick(protocol.KeyOf(key)) == srv {
				return key
			}
		}
	}
	get, big, next := on(0, "get"), on(0, "big"), on(1, "next")
	var hedge *attempt
	sim.Drive(t, r.env, "driver", func(p *sim.Proc) {
		c.Set(p, get, 64, "v", 0, 0)
		r.env.Spawn("bulk", func(p *sim.Proc) {
			bulk, _ := c.Issue(p, Op{Code: protocol.OpSet, Key: big, ValueSize: 256 << 10, Value: "big"})
			c.Wait(p, bulk)
			c.Release(bulk)
		})
		req, _ := c.Issue(p, Op{Code: protocol.OpGet, Key: get}, WithHedge(sim.Microsecond))
		c.Wait(p, req)
		if req.Status != protocol.StatusOK || req.Attempts != 2 || pool.Holders(req) != 1 || req.cur != nil {
			t.Fatalf("GET: %v after %d attempts, %d holds, points into its attempts %v; want OK after 2, held by its caller alone, pointing into none",
				req.Status, req.Attempts, pool.Holders(req), req.cur != nil)
		}
		if len(c.kept) != 1 {
			t.Fatalf("%d attempts kept for good once the GET ended, want 1: its hedge, on its way", len(c.kept))
		}
		for _, att := range c.kept {
			hedge = att
		}
		if hedge.req != nil || hedge.cn.serverID != 1 || pool.Holders(hedge) != 2 {
			t.Errorf("the hedge: names its request %v, on server%d, %d holds; want none, server1, held by its message and the TX engine",
				hedge.req != nil, hedge.cn.serverID, pool.Holders(hedge))
		}
		c.Release(req)
		set, _ := c.Issue(p, Op{Code: protocol.OpSet, Key: next, ValueSize: 64, Value: "v"}, WithBufferAck())
		if set != req {
			t.Errorf("the BufferAck'ed SET did not reuse the released GET's record")
		}
		if !set.Done() && set.first().state == attQueued {
			t.Error("a BufferAck'ed SET returned from Issue with its message queued")
		}
		c.Wait(p, set)
		c.Release(set)
		// Two requests in flight at once take two records.
		a, _ := c.Issue(p, Op{Code: protocol.OpGet, Key: next})
		b, _ := c.Issue(p, Op{Code: protocol.OpGet, Key: get})
		if c.WaitAll(p, []*Req{a, b}) != nil || a.Value != "v" || b.Value != "v" {
			t.Errorf("GETs on recycled records: %v %v, %v %v", a.Status, a.Value, b.Status, b.Value)
		}
		c.Release(a)
		c.Release(b)
	})
	if len(c.kept) != 0 || c.Counters.Val(metrics.CStaleResponses) != 1 {
		t.Errorf("%d attempts kept at the quiesce after %d stale answers, want none after the hedge's one",
			len(c.kept), c.Counters.Val(metrics.CStaleResponses))
	}
	if err := pool.Census(c.Census()).Err(); err != nil {
		t.Error(err)
	}
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

// TestUnreleasedRequestKeepsOnlyItsAnswer keeps the handles of a SET, a GET
// and a GET that timed out, as a caller of the paper's iset/iget that never
// releases would: each points into no attempt once it has ended; the SET's
// and the GET's attempts went back to the client at once, the timed-out
// GET's is kept by its message until the server's late answer lands, and
// then goes back too; later requests take them all, and each answer —
// status, value, error, attempts, outcome — still reads as it was. The key
// and the wire id were the attempts', and went with them.
func TestUnreleasedRequestKeepsOnlyItsAnswer(t *testing.T) {
	r := newTestRig(rigOpts{transport: RDMA, pipeline: server.Async})
	c := r.client
	type kept struct {
		req    *Req
		first  *attempt // its first attempt, taken while it was in flight
		id     uint64   // that attempt's wire id, taken then too
		status protocol.Status
		value  any
		err    error
	}
	var held []kept
	sim.Drive(t, r.env, "caller", func(p *sim.Proc) {
		keep := func(op Op, opts ...IssueOption) {
			req, _ := c.Issue(p, op, opts...)
			first := req.first()
			id := first.wire.ReqID
			c.Wait(p, req)
			held = append(held, kept{req, first, id, req.Status, req.Value, req.Err()})
		}
		keep(Op{Code: protocol.OpSet, Key: "a", ValueSize: 64, Value: "v:a"})
		keep(Op{Code: protocol.OpGet, Key: "a"})
		r.servers[0].AddWorkerStall(p.Now(), p.Now()+sim.Millisecond, sim.Millisecond)
		keep(Op{Code: protocol.OpGet, Key: "a"}, WithDeadline(50*sim.Microsecond))
		if len(c.kept) != 1 || c.kept[held[2].id] != held[2].first {
			t.Errorf("%d attempts kept once the GET timed out, want its own alone", len(c.kept))
		}
		p.Sleep(2 * sim.Millisecond) // the stalled GET's late answer comes back stale
		if len(c.kept) != 0 {
			t.Errorf("%d attempts kept after the late answer, want none", len(c.kept))
		}
		for _, h := range held {
			if h.req.cur != nil || h.first.req == h.req {
				t.Errorf("request %d ended still pointing into its attempts, or named by one", h.id)
			}
		}
		// Later operations take the attempt records back.
		made := c.attempts.Made
		for i := 0; i < 20; i++ {
			if _, _, st := c.Get(p, "a"); st != protocol.StatusOK {
				t.Errorf("GET after: %v", st)
			}
		}
		if c.attempts.Made != made {
			t.Errorf("20 GETs made %d attempt records, want none", c.attempts.Made-made)
		}
	})
	for i, h := range held {
		if h.first.wire.ReqID == h.id {
			t.Errorf("kept request %d: its attempt still carries its message", i)
		}
	}
	if len(held) != 3 || held[0].status != protocol.StatusStored || held[1].value != "v:a" || !errors.Is(held[2].err, ErrDeadlineExceeded) {
		t.Fatalf("the kept requests ended %+v", held)
	}
	for i, h := range held {
		req := h.req
		if req.Attempts != 1 || req.TimedOut() != (i == 2) || req.Status != h.status || req.Value != h.value || !errors.Is(req.Err(), h.err) {
			t.Errorf("kept request %d reads %v, %d attempts, timed out %v, %v %v %v after its attempt was reused; it read %v %v %v",
				i, req.Op, req.Attempts, req.TimedOut(), req.Status, req.Value, req.Err(), h.status, h.value, h.err)
		}
		if pool.Holders(req) != 1 {
			t.Errorf("kept request %d has %d holds, want its caller's alone", i, pool.Holders(req))
		}
	}
}

// TestUnansweredFirstMessageKeepsOnlyItsAttempt loses a GET's one message on
// the fabric: the server may yet read it, so its attempt is kept for good,
// held by that message alone and naming no request — while the request
// record, timed out and released, is free at once and the next Issue takes it.
func TestUnansweredFirstMessageKeepsOnlyItsAttempt(t *testing.T) {
	r := newTestRig(rigOpts{transport: RDMA, pipeline: server.Async})
	c := r.client
	sim.Drive(t, r.env, "caller", func(p *sim.Proc) {
		c.Set(p, "k", 64, "v", 0, 0)
		r.fabric.SetFaults(&filterInjector{pick: func(n int) bool { return n == 1 }})
		lost, _ := c.Issue(p, Op{Code: protocol.OpGet, Key: "k"}, WithDeadline(100*sim.Microsecond))
		id := lost.first().wire.ReqID
		c.Wait(p, lost)
		if !lost.TimedOut() || len(c.kept) != 1 {
			t.Fatalf("the lost GET: timed out %v, %d attempts kept; want true, 1", lost.TimedOut(), len(c.kept))
		}
		if att := c.kept[id]; att == nil || att.req != nil || att.state != attSettled || pool.Holders(att) != 1 {
			t.Fatalf("the kept attempt %p: names its request, is not settled, or has a hold beside its message's", att)
		}
		c.Release(lost)
		if pool.Holders(lost) >= 0 {
			t.Errorf("the released request has %d holds, want it free", pool.Holders(lost))
		}
		next, _ := c.Issue(p, Op{Code: protocol.OpGet, Key: "k"})
		c.Wait(p, next)
		if next != lost || next.Value != "v" {
			t.Errorf("the next GET: on the released record %v, %v %v", next == lost, next.Status, next.Value)
		}
		c.Release(next)
	})
	census := r.census()
	if err := census.Err(); err != nil {
		t.Error(err)
	}
	for _, tally := range census {
		if tally.List == "attempts" && tally.Walked != 1 {
			t.Errorf("the census walked %d kept attempts, want the lost message's one", tally.Walked)
		}
	}
}
