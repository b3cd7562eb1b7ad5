package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"hybridkv/internal/blockdev"
	"hybridkv/internal/hybridslab"
	"hybridkv/internal/pagecache"
	"hybridkv/internal/protocol"
	"hybridkv/internal/replication"
	"hybridkv/internal/server"
	"hybridkv/internal/sim"
	"hybridkv/internal/simnet"
	"hybridkv/internal/slab"
	"hybridkv/internal/store"
)

// testRig wires one client to n servers on a fresh fabric.
type testRig struct {
	env     *sim.Env
	fabric  *simnet.Fabric
	servers []*server.Server
	client  *Client
}

type rigOpts struct {
	transport Transport
	pipeline  server.Pipeline
	servers   int
	// replicas > 1 makes the client replica-aware: it gets a membership of
	// that factor over the rig's servers. (The servers run no replicators;
	// these rigs test the client's routing, not the chain.)
	replicas int
	memLimit int64
	hybrid   bool
	policy   hybridslab.IOPolicy
	// serverCfg / clientCfg optionally tweak the configs beyond the
	// defaults (overload admission, breakers, buffer sizes).
	serverCfg func(*server.Config)
	clientCfg func(*Config)
}

func newTestRig(o rigOpts) *testRig {
	if o.servers <= 0 {
		o.servers = 1
	}
	if o.memLimit <= 0 {
		o.memLimit = 64 << 20
	}
	env := sim.NewEnv()
	spec := simnet.FDRInfiniBand()
	if o.transport == IPoIB {
		spec = simnet.IPoIB()
	}
	fab := simnet.New(env, spec)
	r := &testRig{env: env, fabric: fab}
	for i := 0; i < o.servers; i++ {
		node := fab.AddNode(fmt.Sprintf("server%d", i))
		var file *pagecache.File
		if o.hybrid {
			dev := blockdev.New(env, blockdev.SATA(), 16<<30)
			file = pagecache.New(env, dev, pagecache.DefaultParams()).OpenFile(0, 8<<30)
		}
		mgr := hybridslab.New(env, hybridslab.Config{
			Slab:   slab.Config{MemLimit: o.memLimit},
			Policy: o.policy,
		}, file)
		st := store.New(env, mgr)
		scfg := server.Config{Pipeline: o.pipeline}
		if o.serverCfg != nil {
			o.serverCfg(&scfg)
		}
		var srv *server.Server
		if o.transport == RDMA {
			srv = server.NewRDMA(env, node, st, scfg)
		} else {
			srv = server.NewIPoIB(env, node, st, scfg)
		}
		srv.Start()
		r.servers = append(r.servers, srv)
	}
	cnode := fab.AddNode("client0")
	ccfg := Config{Transport: o.transport}
	if o.replicas > 1 {
		ids := make([]int, o.servers)
		for i := range ids {
			ids[i] = i
		}
		ccfg.Membership = replication.NewMembership(env, o.replicas, ids)
	}
	if o.clientCfg != nil {
		o.clientCfg(&ccfg)
	}
	r.client = New(env, cnode, ccfg)
	for _, srv := range r.servers {
		if o.transport == RDMA {
			r.client.ConnectRDMA(srv)
		} else {
			r.client.ConnectIPoIB(srv)
		}
	}
	return r
}

func TestBlockingSetGetRDMA(t *testing.T) {
	r := newTestRig(rigOpts{transport: RDMA})
	var got any
	var size int
	var setSt, getSt protocol.Status
	var setLat, getLat sim.Time
	r.env.Spawn("bench", func(p *sim.Proc) {
		t0 := p.Now()
		setSt = r.client.Set(p, "user:1", 32*1024, "profile-1", 9, 0)
		setLat = p.Now() - t0
		t0 = p.Now()
		got, size, getSt = r.client.Get(p, "user:1")
		getLat = p.Now() - t0
	})
	r.env.Run()
	if setSt != protocol.StatusStored || getSt != protocol.StatusOK {
		t.Fatalf("statuses set=%v get=%v", setSt, getSt)
	}
	if got != "profile-1" || size != 32*1024 {
		t.Errorf("get returned (%v,%d)", got, size)
	}
	// 32KB on FDR: a handful of µs each way plus host costs.
	for _, lat := range []sim.Time{setLat, getLat} {
		if lat < 5*sim.Microsecond || lat > 60*sim.Microsecond {
			t.Errorf("blocking 32KB latency %v outside [5µs,60µs]", lat)
		}
	}
}

func TestGetMissReturnsNotFound(t *testing.T) {
	r := newTestRig(rigOpts{transport: RDMA})
	var st protocol.Status
	r.env.Spawn("bench", func(p *sim.Proc) {
		_, _, st = r.client.Get(p, "never-set")
	})
	r.env.Run()
	if st != protocol.StatusNotFound {
		t.Errorf("status %v", st)
	}
}

func TestDelete(t *testing.T) {
	r := newTestRig(rigOpts{transport: RDMA})
	var st1, st2 protocol.Status
	r.env.Spawn("bench", func(p *sim.Proc) {
		r.client.Set(p, "k", 100, "v", 0, 0)
		st1 = r.client.roundTrip(p, Op{Code: protocol.OpDelete, Key: "k"}).Status
		_, _, st2 = r.client.Get(p, "k")
	})
	r.env.Run()
	if st1 != protocol.StatusDeleted || st2 != protocol.StatusNotFound {
		t.Errorf("delete=%v get-after=%v", st1, st2)
	}
}

func TestBlockingIPoIBSlowerThanRDMA(t *testing.T) {
	measure := func(tr Transport) sim.Time {
		r := newTestRig(rigOpts{transport: tr})
		var total sim.Time
		r.env.Spawn("bench", func(p *sim.Proc) {
			t0 := p.Now()
			for i := 0; i < 20; i++ {
				key := fmt.Sprintf("k%d", i)
				r.client.Set(p, key, 32*1024, i, 0, 0)
				r.client.Get(p, key)
			}
			total = p.Now() - t0
		})
		r.env.Run()
		return total
	}
	rdma, ipoib := measure(RDMA), measure(IPoIB)
	ratio := float64(ipoib) / float64(rdma)
	if ratio < 2.5 || ratio > 8 {
		t.Errorf("IPoIB/RDMA blocking ratio %.2f, want within [2.5,8] (paper ≈3.6x)", ratio)
	}
}

func TestNonBlockingBatchCompletes(t *testing.T) {
	r := newTestRig(rigOpts{transport: RDMA, pipeline: server.Async})
	const n = 200
	var reqs []*Req
	r.env.Spawn("bench", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			req, err := r.client.ISet(p, fmt.Sprintf("k%04d", i), 8*1024, i, 0, 0)
			if err != nil {
				t.Errorf("iset: %v", err)
				return
			}
			reqs = append(reqs, req)
		}
		r.client.WaitAll(p, reqs)
		for i := 0; i < n; i++ {
			req, _ := r.client.IGet(p, fmt.Sprintf("k%04d", i))
			reqs = append(reqs, req)
		}
		r.client.WaitAll(p, reqs[n:])
	})
	r.env.Run()
	for i, req := range reqs[:n] {
		if !req.Done() || req.Status != protocol.StatusStored {
			t.Fatalf("set %d incomplete: done=%v status=%v", i, req.Done(), req.Status)
		}
	}
	for i, req := range reqs[n:] {
		if req.Status != protocol.StatusOK || req.Value != i {
			t.Fatalf("get %d: status=%v value=%v", i, req.Status, req.Value)
		}
	}
	if r.client.Issued != 2*n || r.client.Completed != 2*n {
		t.Errorf("issued=%d completed=%d", r.client.Issued, r.client.Completed)
	}
}

func TestNonBlockingFasterThanBlocking(t *testing.T) {
	// The core claim: amortized per-op latency of pipelined iset/iget is
	// far below blocking set/get.
	const n = 200
	blocking := func() sim.Time {
		r := newTestRig(rigOpts{transport: RDMA, pipeline: server.Sync})
		var total sim.Time
		r.env.Spawn("bench", func(p *sim.Proc) {
			t0 := p.Now()
			for i := 0; i < n; i++ {
				r.client.Set(p, fmt.Sprintf("k%04d", i), 32*1024, i, 0, 0)
			}
			total = p.Now() - t0
		})
		r.env.Run()
		return total / n
	}()
	nonblocking := func() sim.Time {
		r := newTestRig(rigOpts{transport: RDMA, pipeline: server.Async})
		var total sim.Time
		r.env.Spawn("bench", func(p *sim.Proc) {
			t0 := p.Now()
			var reqs []*Req
			for i := 0; i < n; i++ {
				req, _ := r.client.ISet(p, fmt.Sprintf("k%04d", i), 32*1024, i, 0, 0)
				reqs = append(reqs, req)
			}
			r.client.WaitAll(p, reqs)
			total = p.Now() - t0
		})
		r.env.Run()
		return total / n
	}()
	if float64(blocking)/float64(nonblocking) < 2 {
		t.Errorf("blocking %v vs non-blocking %v per op: want ≥2x", blocking, nonblocking)
	}
}

func TestBSetBuffersReusableBeforeCompletion(t *testing.T) {
	r := newTestRig(rigOpts{transport: RDMA, pipeline: server.Async})
	var reusableAt, doneAt sim.Time
	r.env.Spawn("bench", func(p *sim.Proc) {
		req, err := r.client.BSet(p, "k", 512*1024, "big", 0, 0)
		if err != nil {
			t.Errorf("bset: %v", err)
			return
		}
		reusableAt = p.Now() // BSet returns when buffers are reusable
		r.client.Wait(p, req)
		doneAt = p.Now()
	})
	r.env.Run()
	if reusableAt <= 0 || doneAt <= reusableAt {
		t.Errorf("reusable at %v, done at %v: want 0 < reusable < done", reusableAt, doneAt)
	}
}

func TestISetReturnsBeforeDataLeavesNIC(t *testing.T) {
	r := newTestRig(rigOpts{transport: RDMA, pipeline: server.Async})
	var isetRet, bsetRet sim.Time
	r.env.Spawn("bench", func(p *sim.Proc) {
		t0 := p.Now()
		req, _ := r.client.ISet(p, "k1", 1<<20, "v", 0, 0)
		isetRet = p.Now() - t0
		r.client.Wait(p, req)
		t0 = p.Now()
		req2, _ := r.client.BSet(p, "k2", 1<<20, "v", 0, 0)
		bsetRet = p.Now() - t0
		r.client.Wait(p, req2)
	})
	r.env.Run()
	// 1MB serialization on FDR ≈ 175µs; iset must return in well under that.
	if isetRet > 10*sim.Microsecond {
		t.Errorf("iset returned in %v, want ≤10µs", isetRet)
	}
	if bsetRet < 100*sim.Microsecond {
		t.Errorf("bset returned in %v, want ≥100µs (waits for DMA)", bsetRet)
	}
}

func TestTestSemantics(t *testing.T) {
	r := newTestRig(rigOpts{transport: RDMA, pipeline: server.Async})
	r.env.Spawn("bench", func(p *sim.Proc) {
		req, _ := r.client.ISet(p, "k", 32*1024, "v", 0, 0)
		if r.client.Test(req) {
			t.Errorf("Test true immediately after issue")
		}
		for !r.client.Test(req) {
			p.Sleep(sim.Microsecond)
		}
		if req.Status != protocol.StatusStored {
			t.Errorf("status %v after completion", req.Status)
		}
	})
	r.env.Run()
}

// TestIssueOnIPoIB: Issue is the front door on the socket too. The stack has
// no non-blocking send, so the request it returns is already done and Err
// agrees with its status; the request's own options bound the exchange —
// WithDeadline alone, WithRetry with its resends — and a hedge, a failover or
// a BufferAck option is inert.
func TestIssueOnIPoIB(t *testing.T) {
	r := newTestRig(rigOpts{transport: IPoIB, servers: 2})
	lost := &filterInjector{pick: func(int) bool { return false }}
	r.fabric.SetFaults(lost)
	get := Op{Code: protocol.OpGet, Key: "k"}
	retry := WithRetry(RetryPolicy{MaxAttempts: 3, AttemptTimeout: 50 * sim.Microsecond, Failover: true})
	r.env.Spawn("app", func(p *sim.Proc) {
		done := func(req *Req, err error) *Req {
			if err != nil || !req.Done() {
				t.Fatalf("%v %q: err %v, done %v: want a request that is complete on return", req.Op, req.Key, err, req.Done())
			}
			if !errors.Is(req.Err(), statusErr(req.Status)) && !req.TimedOut() {
				t.Errorf("%v %q: status %v but err %v", req.Op, req.Key, req.Status, req.Err())
			}
			return req
		}
		issue := func(op Op, opts ...IssueOption) *Req { return done(r.client.Issue(p, op, opts...)) }
		// Listing 1's bset/bget are Issue with a BufferAck option: inert here.
		if req := done(r.client.BSet(p, "k", 100, "v", 0, 0)); req.Err() != nil || req.Acked() {
			t.Errorf("bset: err %v, acked %v", req.Err(), req.Acked())
		}
		if req := done(r.client.BGet(p, "k")); req.Value != "v" || req.Acked() {
			t.Errorf("bget: value %v, acked %v", req.Value, req.Acked())
		}
		if req := issue(get, WithHedge(sim.Nanosecond)); req.Value != "v" || req.Attempts != 1 {
			t.Errorf("hedged get: value %v in %d attempts", req.Value, req.Attempts)
		}
		if req := issue(Op{Code: protocol.OpGet, Key: "nope"}); !errors.Is(req.Err(), ErrNotFound) {
			t.Errorf("get of a missing key: %v", req.Err())
		}

		// One lost request: the first resend is answered, on the same server.
		lost.n, lost.pick = 0, func(n int) bool { return n == 1 }
		if req := issue(get, retry); req.Err() != nil || req.Attempts != 2 || req.conn != r.client.route("k", routeGet, nil) {
			t.Errorf("one lost request under WithRetry: err %v after %d attempts", req.Err(), req.Attempts)
		}
		// A mute server: each option bounds the exchange by its own budget.
		lost.pick = func(int) bool { return true }
		for _, c := range []struct {
			name     string
			opts     []IssueOption
			attempts int
			within   sim.Time
		}{
			{"WithDeadline alone", []IssueOption{WithDeadline(200 * sim.Microsecond)}, 1, 200 * sim.Microsecond},
			{"WithRetry", []IssueOption{retry}, 3, 3 * 50 * sim.Microsecond},
		} {
			t0 := p.Now()
			req := issue(get, c.opts...)
			if !errors.Is(req.Err(), ErrDeadlineExceeded) || req.Attempts != c.attempts {
				t.Errorf("%s against a mute server: err %v after %d attempts, want a timeout after %d", c.name, req.Err(), req.Attempts, c.attempts)
			}
			if took := p.Now() - t0; took < c.within || took > c.within+40*sim.Microsecond { // the slack: the blocking sends
				t.Errorf("%s against a mute server: took %v, want its budget of %v", c.name, took, c.within)
			}
		}
	})
	r.env.Run()
	if st := r.client.Stats(); st.Hedges != 0 || st.Failovers != 0 || st.Retries != 3 || st.Timeouts != 2 {
		t.Errorf("hedges %d, failovers %d, retries %d, timeouts %d; want 0, 0, 3, 2", st.Hedges, st.Failovers, st.Retries, st.Timeouts)
	}
}

func TestMultiServerDistribution(t *testing.T) {
	r := newTestRig(rigOpts{transport: RDMA, pipeline: server.Async, servers: 4})
	const n = 2000
	r.env.Spawn("bench", func(p *sim.Proc) {
		var reqs []*Req
		for i := 0; i < n; i++ {
			req, _ := r.client.ISet(p, fmt.Sprintf("key-%05d", i), 4096, i, 0, 0)
			reqs = append(reqs, req)
		}
		r.client.WaitAll(p, reqs)
	})
	r.env.Run()
	total := int64(0)
	for i, srv := range r.servers {
		got := srv.Store().SetOps
		total += got
		frac := float64(got) / n
		if frac < 0.10 || frac > 0.45 {
			t.Errorf("server %d holds %.0f%% of keys; ring badly unbalanced", i, frac*100)
		}
	}
	if total != n {
		t.Errorf("servers saw %d sets, want %d", total, n)
	}
	// All keys retrievable (routing is stable).
	var wrong int
	r.env.Spawn("verify", func(p *sim.Proc) {
		for i := 0; i < n; i += 37 {
			v, _, st := r.client.Get(p, fmt.Sprintf("key-%05d", i))
			if st != protocol.StatusOK || v != i {
				wrong++
			}
		}
	})
	r.env.Run()
	if wrong != 0 {
		t.Errorf("%d keys misrouted", wrong)
	}
}

func TestCreditsBoundOutstanding(t *testing.T) {
	// A sync hybrid server with slow storage: the client may issue
	// thousands of isets; credits must bound in-flight requests without
	// deadlock, and everything must complete.
	r := newTestRig(rigOpts{
		transport: RDMA, pipeline: server.Sync,
		memLimit: 4 << 20, hybrid: true, policy: hybridslab.PolicyDirect,
	})
	const n = 500
	var reqs []*Req
	r.env.Spawn("bench", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			req, _ := r.client.ISet(p, fmt.Sprintf("k%04d", i), 32*1024, i, 0, 0)
			reqs = append(reqs, req)
		}
		r.client.WaitAll(p, reqs)
	})
	r.env.Run()
	for i, req := range reqs {
		if !req.Done() {
			t.Fatalf("request %d never completed (deadlock?)", i)
		}
	}
}

func TestRingBalanceAndStability(t *testing.T) {
	rg := replication.NewRing()
	for i := 0; i < 4; i++ {
		rg.Add(i)
	}
	counts := make([]int, 4)
	for i := 0; i < 40000; i++ {
		counts[rg.Pick(fmt.Sprintf("object-%d", i))]++
	}
	for i, c := range counts {
		frac := float64(c) / 40000
		if math.Abs(frac-0.25) > 0.12 {
			t.Errorf("server %d owns %.1f%% of keys", i, frac*100)
		}
	}
	// Consistency: removing one server must keep other keys mostly stable.
	before := make(map[int]int)
	for i := 0; i < 1000; i++ {
		before[i] = rg.Pick(fmt.Sprintf("object-%d", i))
	}
	rg.Remove(3)
	moved := 0
	for i := 0; i < 1000; i++ {
		after := rg.Pick(fmt.Sprintf("object-%d", i))
		if before[i] != 3 && after != before[i] {
			moved++
		}
	}
	if moved > 50 {
		t.Errorf("%d of ~750 stable keys moved after removing one server", moved)
	}
}

func TestClientWaitStageRecorded(t *testing.T) {
	r := newTestRig(rigOpts{transport: RDMA})
	r.env.Spawn("bench", func(p *sim.Proc) {
		r.client.Set(p, "k", 32*1024, "v", 0, 0)
	})
	r.env.Run()
	if r.client.Prof.Total("client-wait") == 0 {
		t.Errorf("client-wait stage not recorded for blocking set")
	}
}
