package core

import (
	"errors"
	"fmt"
	"hybridkv/internal/metrics"
	"math"
	"testing"

	"hybridkv/internal/blockdev"
	"hybridkv/internal/hybridslab"
	"hybridkv/internal/pagecache"
	"hybridkv/internal/pool"
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

// census tallies the rig's pooled records at a drained quiesce: the
// client's requests and resolutions, and every server's replies, items and
// directory records.
func (r *testRig) census() pool.Census {
	c := pool.Census(r.client.Census())
	for _, srv := range r.servers {
		c = append(c, srv.Store().Census()...)
	}
	return c
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
	sim.Drive(t, r.env, "bench", func(p *sim.Proc) {
		t0 := p.Now()
		setSt = r.client.Set(p, "user:1", 32*1024, "profile-1", 9, 0)
		setLat = p.Now() - t0
		t0 = p.Now()
		got, size, getSt = r.client.Get(p, "user:1")
		getLat = p.Now() - t0
	})
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
	sim.Drive(t, r.env, "bench", func(p *sim.Proc) {
		_, _, st = r.client.Get(p, "never-set")
	})
	if st != protocol.StatusNotFound {
		t.Errorf("status %v", st)
	}
}

// The store keeps no expiry: a TTL handed to the blocking Set panics before
// anything is sent, rather than being stored as "never".
func TestSetPanicsOnATTL(t *testing.T) {
	r := newTestRig(rigOpts{transport: RDMA})
	defer func() {
		if recover() == nil {
			t.Error("Set with a 60 s TTL did not panic")
		}
	}()
	r.client.Set(nil, "k", 100, "v", 0, 60)
}

func TestBlockingIPoIBSlowerThanRDMA(t *testing.T) {
	measure := func(tr Transport) sim.Time {
		r := newTestRig(rigOpts{transport: tr})
		var total sim.Time
		sim.Drive(t, r.env, "bench", func(p *sim.Proc) {
			t0 := p.Now()
			for i := 0; i < 20; i++ {
				key := fmt.Sprintf("k%d", i)
				r.client.Set(p, key, 32*1024, i, 0, 0)
				r.client.Get(p, key)
			}
			total = p.Now() - t0
		})
		return total
	}
	rdma, ipoib := measure(RDMA), measure(IPoIB)
	ratio := float64(ipoib) / float64(rdma)
	if ratio < 2.5 || ratio > 8 {
		t.Errorf("IPoIB/RDMA blocking ratio %.2f, want within [2.5,8] (the paper: claims row 1)", ratio)
	}
}

func TestNonBlockingBatchCompletes(t *testing.T) {
	r := newTestRig(rigOpts{transport: RDMA, pipeline: server.Async})
	const n = 200
	var reqs []*Req
	sim.Drive(t, r.env, "bench", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			req, err := r.client.ISet(p, fmt.Sprintf("k%04d", i), 8*1024, i, 0)
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
	if r.client.Counters.Val(metrics.CIssued) != 2*n || r.client.Counters.Val(metrics.CCompleted) != 2*n {
		t.Errorf("issued=%d completed=%d", r.client.Counters.Val(metrics.CIssued), r.client.Counters.Val(metrics.CCompleted))
	}
}

func TestNonBlockingFasterThanBlocking(t *testing.T) {
	// The core claim: amortized per-op latency of pipelined iset/iget is
	// far below blocking set/get.
	const n = 200
	blocking := func() sim.Time {
		r := newTestRig(rigOpts{transport: RDMA, pipeline: server.Sync})
		var total sim.Time
		sim.Drive(t, r.env, "bench", func(p *sim.Proc) {
			t0 := p.Now()
			for i := 0; i < n; i++ {
				r.client.Set(p, fmt.Sprintf("k%04d", i), 32*1024, i, 0, 0)
			}
			total = p.Now() - t0
		})
		return total / n
	}()
	nonblocking := func() sim.Time {
		r := newTestRig(rigOpts{transport: RDMA, pipeline: server.Async})
		var total sim.Time
		sim.Drive(t, r.env, "bench", func(p *sim.Proc) {
			t0 := p.Now()
			var reqs []*Req
			for i := 0; i < n; i++ {
				req, _ := r.client.ISet(p, fmt.Sprintf("k%04d", i), 32*1024, i, 0)
				reqs = append(reqs, req)
			}
			r.client.WaitAll(p, reqs)
			total = p.Now() - t0
		})
		return total / n
	}()
	if float64(blocking)/float64(nonblocking) < 2 {
		t.Errorf("blocking %v vs non-blocking %v per op: want ≥2x", blocking, nonblocking)
	}
}

func TestBSetBuffersReusableBeforeCompletion(t *testing.T) {
	r := newTestRig(rigOpts{transport: RDMA, pipeline: server.Async})
	var reusableAt, doneAt sim.Time
	sim.Drive(t, r.env, "bench", func(p *sim.Proc) {
		req, err := r.client.BSet(p, "k", 512*1024, "big", 0)
		if err != nil {
			t.Errorf("bset: %v", err)
			return
		}
		reusableAt = p.Now() // BSet returns when buffers are reusable
		r.client.Wait(p, req)
		doneAt = p.Now()
	})
	if reusableAt <= 0 || doneAt <= reusableAt {
		t.Errorf("reusable at %v, done at %v: want 0 < reusable < done", reusableAt, doneAt)
	}
}

func TestISetReturnsBeforeDataLeavesNIC(t *testing.T) {
	r := newTestRig(rigOpts{transport: RDMA, pipeline: server.Async})
	var isetRet, bsetRet sim.Time
	sim.Drive(t, r.env, "bench", func(p *sim.Proc) {
		t0 := p.Now()
		req, _ := r.client.ISet(p, "k1", 1<<20, "v", 0)
		isetRet = p.Now() - t0
		r.client.Wait(p, req)
		t0 = p.Now()
		req2, _ := r.client.BSet(p, "k2", 1<<20, "v", 0)
		bsetRet = p.Now() - t0
		r.client.Wait(p, req2)
	})
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
	sim.Drive(t, r.env, "bench", func(p *sim.Proc) {
		req, _ := r.client.ISet(p, "k", 32*1024, "v", 0)
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
	sim.Drive(t, r.env, "app", func(p *sim.Proc) {
		done := func(req *Req, err error) *Req {
			if err != nil || !req.Done() {
				t.Fatalf("%v %q: err %v, done %v: want a request that is complete on return", req.Op, req.key, err, req.Done())
			}
			if !errors.Is(req.Err(), statusErr(req.Status)) && !req.TimedOut() {
				t.Errorf("%v %q: status %v but err %v", req.Op, req.key, req.Status, req.Err())
			}
			return req
		}
		issue := func(op Op, opts ...IssueOption) *Req { return done(r.client.Issue(p, op, opts...)) }
		// Listing 1's bset/bget are Issue with a BufferAck option: inert here.
		if req := done(r.client.BSet(p, "k", 100, "v", 0)); req.Err() != nil || req.Acked() {
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
		if req := issue(get, retry); req.Err() != nil || req.Attempts != 2 || req.cn != r.client.route(protocol.KeyOf("k"), routeGet, nil) {
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
	if st := r.client.Counters; st.Val(metrics.CHedges) != 0 || st.Val(metrics.CFailovers) != 0 || st.Val(metrics.CRetries) != 3 || st.Val(metrics.CTimeouts) != 2 {
		t.Errorf("hedges %d, failovers %d, retries %d, timeouts %d; want 0, 0, 3, 2", st.Val(metrics.CHedges), st.Val(metrics.CFailovers), st.Val(metrics.CRetries), st.Val(metrics.CTimeouts))
	}
}

func TestMultiServerDistribution(t *testing.T) {
	r := newTestRig(rigOpts{transport: RDMA, pipeline: server.Async, servers: 4})
	const n = 2000
	sim.Drive(t, r.env, "bench", func(p *sim.Proc) {
		var reqs []*Req
		for i := 0; i < n; i++ {
			req, _ := r.client.ISet(p, fmt.Sprintf("key-%05d", i), 4096, i, 0)
			reqs = append(reqs, req)
		}
		r.client.WaitAll(p, reqs)
	})
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
	sim.Drive(t, r.env, "verify", func(p *sim.Proc) {
		for i := 0; i < n; i += 37 {
			v, _, st := r.client.Get(p, fmt.Sprintf("key-%05d", i))
			if st != protocol.StatusOK || v != i {
				wrong++
			}
		}
	})
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
	sim.Drive(t, r.env, "bench", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			req, _ := r.client.ISet(p, fmt.Sprintf("k%04d", i), 32*1024, i, 0)
			reqs = append(reqs, req)
		}
		r.client.WaitAll(p, reqs)
	})
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
		counts[rg.Pick(protocol.KeyOf(fmt.Sprintf("object-%d", i)))]++
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
		before[i] = rg.Pick(protocol.KeyOf(fmt.Sprintf("object-%d", i)))
	}
	rg.Remove(3)
	moved := 0
	for i := 0; i < 1000; i++ {
		after := rg.Pick(protocol.KeyOf(fmt.Sprintf("object-%d", i)))
		if before[i] != 3 && after != before[i] {
			moved++
		}
	}
	if moved > 50 {
		t.Errorf("%d of ~750 stable keys moved after removing one server", moved)
	}
}
