package core

import (
	"fmt"
	"testing"
	"unsafe"

	"hybridkv/internal/metrics"
	"hybridkv/internal/protocol"
	"hybridkv/internal/server"
	"hybridkv/internal/sim"
	"hybridkv/internal/simnet"
)

// opModel returns a step that runs one operation end to end — Issue, the
// request's fabric message, the server's dispatch and storage phases, the
// response's fabric message, Wait, Release — between a client node and an
// async server node, driven by a parked process so that the step itself
// spawns nothing. The value is pointer-shaped and the options are built
// once: boxing and option closures are the caller's cost, not the client's.
func opModel(r *testRig, op Op, check func(*Req), opts ...IssueOption) (step func()) {
	return driverModel(r, func(p *sim.Proc, c *Client) {
		req, err := c.Issue(p, op, opts...)
		if err != nil {
			panic(err)
		}
		c.Wait(p, req)
		check(req)
		c.Release(req)
	})
}

// driverModel is opModel for any one call: a step runs body once on the
// parked driver, after the warm-up SET of "k".
func driverModel(r *testRig, body func(p *sim.Proc, c *Client)) (step func()) {
	c := r.client
	kick := sim.NewQueue[struct{}](r.env, 0)
	r.env.Spawn("driver", func(p *sim.Proc) {
		c.Set(p, "k", 512, r, 0, 0)
		for {
			kick.Get(p)
			body(p, c)
		}
	})
	return func() {
		kick.TryPut(struct{}{})
		r.env.Run() // no driver: it parks on kick between steps, and the step's allocations are what is counted
	}
}

// The blocking calls: Get copies the answer out and Set its status, and each
// releases its own request.
func blockingGetModel() (step func()) {
	r := newTestRig(rigOpts{transport: RDMA, pipeline: server.Async})
	return driverModel(r, func(p *sim.Proc, c *Client) {
		if v, _, st := c.Get(p, "k"); st != protocol.StatusOK || v != r {
			panic("blocking GET model: answered " + st.String())
		}
	})
}

func blockingSetModel(value any) (step func()) {
	r := newTestRig(rigOpts{transport: RDMA, pipeline: server.Async})
	return driverModel(r, func(p *sim.Proc, c *Client) {
		if st := c.Set(p, "k", 512, value, 0, 0); st != protocol.StatusStored {
			panic("blocking SET model: answered " + st.String())
		}
	})
}

func rpcModel(op Op, want protocol.Status) (step func()) {
	r := newTestRig(rigOpts{transport: RDMA, pipeline: server.Async})
	return opModel(r, op, func(req *Req) {
		if req.Status != want {
			panic("op model: " + req.Op.String() + " answered " + req.Status.String())
		}
	})
}

// bypassHitModel is opModel for one 512-byte inline bypass hit: Issue, the
// resolver process, the slot READ out and back, completion, Wait. No hit
// ticks a hot-set refresh: the counter restarts after each.
func bypassHitModel() (step func()) {
	r := newBypassRig()
	return opModel(r, Op{Code: protocol.OpGet, Key: "k"}, func(req *Req) {
		if !req.Bypassed() {
			panic("bypass hit model: GET did not resolve one-sided")
		}
		r.client.hotGets = 0
	})
}

// sampledModel is bypassHitModel for the hit that ticks a hot-set refresh:
// the hit, and its key carried to the server's heat sketch on one
// OpDirQuery out and the directory answer back.
func sampledModel() (step func()) {
	r := newBypassRig()
	refreshes := int64(0)
	return opModel(r, Op{Code: protocol.OpGet, Key: "k"}, func(req *Req) {
		c := r.client
		if !req.Bypassed() {
			panic("sampled model: GET did not resolve one-sided")
		}
		if c.hotGets%hotSampleEvery == 0 && c.Counters.Val(metrics.CHotSamples) != refreshes+1 {
			panic("sampled model: the GET's refresh did not carry its key")
		}
		refreshes = c.Counters.Val(metrics.CHotSamples)
		c.hotGets = hotSampleEvery - 1 // the next GET ticks one
	})
}

// loseFirstAttempts loses every even client message: after the model's
// warm-up SET (the first), a step's first attempt — each step of the models
// below sends exactly two, the attempt that is lost and the one that answers.
func loseFirstAttempts() *filterInjector {
	return &filterInjector{pick: func(n int) bool { return n%2 == 0 }}
}

// The second-attempt models: one GET each whose first attempt does not answer
// it. retransmitModel's is lost on the fabric, and the guard's retransmit is
// answered; hedgeModel's too, and the hedge to the neighbour is answered (a
// miss); fallbackModel resolves a key the directory does not publish, and the
// RPC fallback is answered.
func retransmitModel() (step func()) {
	r := newTestRig(rigOpts{transport: RDMA, pipeline: server.Async})
	r.fabric.SetFaults(loseFirstAttempts())
	return opModel(r, Op{Code: protocol.OpGet, Key: "k"}, func(req *Req) {
		if req.Attempts != 2 || req.Status != protocol.StatusOK {
			panic("retransmit model: the GET was not answered on its second attempt")
		}
	}, WithRetry(RetryPolicy{MaxAttempts: 2, AttemptTimeout: 20 * sim.Microsecond, Jitter: -1}))
}

func hedgeModel() (step func()) {
	r := newTestRig(rigOpts{transport: RDMA, pipeline: server.Async, servers: 2})
	r.fabric.SetFaults(loseFirstAttempts())
	return opModel(r, Op{Code: protocol.OpGet, Key: "k"}, func(req *Req) {
		if req.Attempts != 2 || req.Status != protocol.StatusNotFound {
			panic("hedge model: the GET was not answered by its hedge")
		}
	}, WithHedge(20*sim.Microsecond))
}

func fallbackModel() (step func()) {
	return opModel(newBypassRig(), Op{Code: protocol.OpGet, Key: "absent"}, func(req *Req) {
		if req.Attempts != 2 || req.Bypassed() || req.Status != protocol.StatusNotFound {
			panic("fallback model: the GET was not answered by its RPC fallback")
		}
	})
}

func benchOp(b *testing.B, step func()) {
	step() // warm: pools, rings, maps, the directory bootstrap
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// The client's host-cost lines: one operation each, end to end.
func BenchmarkRPCSet(b *testing.B) {
	benchOp(b, rpcModel(Op{Code: protocol.OpSet, Key: "k", ValueSize: 512, Value: b}, protocol.StatusStored))
}
func BenchmarkRPCGet(b *testing.B) {
	benchOp(b, rpcModel(Op{Code: protocol.OpGet, Key: "k"}, protocol.StatusOK))
}
func BenchmarkBlockingSet(b *testing.B)   { benchOp(b, blockingSetModel(b)) }
func BenchmarkBlockingGet(b *testing.B)   { benchOp(b, blockingGetModel()) }
func BenchmarkBypassHit(b *testing.B)     { benchOp(b, bypassHitModel()) }
func BenchmarkBypassSampled(b *testing.B) { benchOp(b, sampledModel()) }

// The second attempt's line: what a GET costs when its first attempt is not
// the one that answers it.
func BenchmarkRetransmit(b *testing.B)     { benchOp(b, retransmitModel()) }
func BenchmarkHedge(b *testing.B)          { benchOp(b, hedgeModel()) }
func BenchmarkBypassFallback(b *testing.B) { benchOp(b, fallbackModel()) }

// What one operation allocates, every layer under the client included:
// nothing. The stored item of a SET comes off its manager's free list and
// goes back once the next SET of its key has replaced it (hybridslab.Item).
// The request handle — its
// attempt, wire message and options ride inside it — comes off the client's
// free list and goes back at its last hold: the caller's Release, the answer
// to its message, the TX engine's post. The server's answer comes off the
// store's free list and goes back once the client has landed it and the
// message carrying it has been recycled (protocol.NewReply). A bypass hit's
// resolver runs on a recycled process, spawned with a function bound once
// per client, and takes the GET from the client's resolver queue. The hit
// that ticks a hot-set refresh adds nothing: the refresh goes out from the
// connection's long-lived refresher on a pooled request record, and the
// server answers every query with a pooled reply carrying the one
// DirectoryInfo it holds for its hot-set version and epoch. Its fabric
// messages — an RPC's request and response, a hit's READ out and back —
// cost nothing: each verbs transfer comes off its HCA's free list and goes
// back after delivery. The blocking Get and Set copy their answer out and
// release their own request. Nothing is allocated per value byte. The
// ceilings are what is measured: a new allocation anywhere on the path fails
// here first. The SETs were 1 while every stored item was allocated afresh;
// they were 2, 1, 1 and 1 while every request had a handle of its own, and 3,
// 2, 2 and 3 while every answer and every resolver was allocated afresh too.
func TestOperationAllocationCeilings(t *testing.T) {
	for _, tc := range []struct {
		name    string
		step    func()
		ceiling float64
	}{
		{"RPC SET round trip", rpcModel(Op{Code: protocol.OpSet, Key: "k", ValueSize: 512, Value: t}, protocol.StatusStored), 0},
		{"RPC GET round trip", rpcModel(Op{Code: protocol.OpGet, Key: "k"}, protocol.StatusOK), 0},
		{"blocking SET", blockingSetModel(t), 0},
		{"blocking GET", blockingGetModel(), 0},
		{"inline bypass hit", bypassHitModel(), 0},
		{"sampled bypass GET + its refresh", sampledModel(), 0},
	} {
		tc.step()
		if got := testing.AllocsPerRun(500, tc.step); got > tc.ceiling {
			t.Errorf("one %s: %v allocations, ceiling %v", tc.name, got, tc.ceiling)
		}
	}
}

// A second attempt — a retransmit, a hedge, a bypass fallback — allocates its
// attempt record (1: the first attempt's is embedded in the Req, and the
// earlier attempts may still be queued, pending or on the wire, so it cannot
// be reused) and nothing else in the client: chaining a request's attempts
// costs a pointer in a record that exists anyway. The rest of each ceiling is
// the helper that made the attempt: the message the fabric lost goes back to
// its HCA's free list as the rest of the traffic does, the answer included,
// and costs nothing. A fallback's first
// attempt never left the client, so its request handle is recycled: it is
// the attempt (1) alone, its resolver spawned with no closure. A retransmit's
// or a hedge's first attempt was sent and never answered — the server may
// still read its message in the handle — so the handle is never recycled
// and each such GET allocates a fresh one (1). A hedged GET is that handle
// plus the hedger's closure (1) and the attempt (1). A retransmitted GET is
// the handle plus the attempt (1) and the guard: its closure (1), its jitter
// source (1: the rand.Rand around it stays on the guard's stack), and the
// two wakeups its attempt-waits leave on the nudge (2). An event chains its
// waiters through their wakeups, so a second waiter on the completion flag
// costs nothing, and a canceled one goes back to the free list when its
// event fires; but the nudge of a retransmitted GET never fires, and its
// leftovers go with the handle. The attempt-waits wait on the flag and the
// nudge directly, with no joined event and no observers (the ceiling was 20
// while they did). They were 21, 6 and 4 while every answer and every
// resolver was allocated afresh, the fallback 2 while every request had a
// handle of its own, 10 and 5 while an event's second and later waiters
// lived in a slice of its own, and 7 and 4 while a dropped message's
// transfer was never handed back.
func TestSecondAttemptAllocationCeilings(t *testing.T) {
	for _, tc := range []struct {
		name    string
		step    func()
		ceiling float64
	}{
		{"retransmitted GET", retransmitModel(), 6},
		{"hedged GET", hedgeModel(), 3},
		{"bypass fallback", fallbackModel(), 1},
	} {
		tc.step()
		if got := testing.AllocsPerRun(500, tc.step); got > tc.ceiling {
			t.Errorf("one %s: %v allocations, ceiling %v", tc.name, got, tc.ceiling)
		}
	}
}

// Req and attempt are allocated once per operation and once per second
// attempt, and the benchmark's host_bytes_per_op has a 2 % bound: the
// attempt chain, the attempt's state and the breaker's probe holder cost no
// bytes. Req was 560 bytes (the 576-byte size class), then 416 (the 416-byte
// class): three 24-byte events in place of three of 48, its exported Op,
// Status and Flags in one word, and its attempt and options packed. Then 376,
// in the 384-byte class: its id and key read off its first attempt's message
// (ID, Key), and a retryable rejection kept as its one-byte status beside
// Status rather than as an error. Now it is 320, the 320-byte class: four
// 16-byte events in place of 24 (a waiter ring kept by its tail), no client
// or latest-connection pointer (first.cn.c, cur.cn), and the busy hint in the
// attempt's padding. attempt is 128, its own class: no id beside its
// message's ReqID, an 80-byte message, and the hint's four bytes where state
// left seven of padding.
//
// It also logs one line of each per-operation record's size and size class,
// which make allocs prints, so a record that crosses a class shows there.
func TestRequestRecordSizes(t *testing.T) {
	line := "bytes      records     "
	for _, r := range []struct {
		name string
		size uintptr
	}{
		{"core.Req", unsafe.Sizeof(Req{})},
		{"core.attempt", unsafe.Sizeof(attempt{})},
		{"sim.Event", unsafe.Sizeof(sim.Event{})},
		{"simnet.Flight", unsafe.Sizeof(simnet.Flight{})},
	} {
		line += fmt.Sprintf(" %s=%d/%d", r.name, r.size, sizeClass(r.size))
	}
	t.Log(line + "  (unsafe.Sizeof/size class)")
	if got := unsafe.Sizeof(Req{}); got > 320 {
		t.Errorf("Req is %d bytes, over the 320-byte size class (376 at f0af065)", got)
	}
	if got := unsafe.Sizeof(attempt{}); got != 128 {
		t.Errorf("attempt is %d bytes, want 128 (128 at f0af065)", got)
	}
}

// sizeClasses are the Go runtime's small-object size classes up to 1 KiB
// (runtime/sizeclasses.go): an allocation of n bytes takes the first that
// holds it.
var sizeClasses = []uintptr{8, 16, 24, 32, 48, 64, 80, 96, 112, 128, 144, 160,
	176, 192, 208, 224, 240, 256, 288, 320, 352, 384, 416, 448, 480, 512, 576,
	640, 704, 768, 896, 1024}

// sizeClass is the bytes an allocation of n takes on the heap; 0 past 1 KiB,
// where none of these records is.
func sizeClass(n uintptr) uintptr {
	for _, c := range sizeClasses {
		if n <= c {
			return c
		}
	}
	return 0
}
