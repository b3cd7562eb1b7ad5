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
func opModel(tb testing.TB, r *testRig, op Op, check func(*Req), opts ...IssueOption) (step func()) {
	return driverModel(tb, r, func(p *sim.Proc, c *Client) {
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
func driverModel(tb testing.TB, r *testRig, body func(p *sim.Proc, c *Client)) (step func()) {
	c := r.client
	sim.Drive(tb, r.env, "warm-up", func(p *sim.Proc) { c.Set(p, "k", 512, r, 0, 0) })
	return sim.Stepper(tb, r.env, "driver", func(p *sim.Proc) { body(p, c) })
}

// The blocking calls: Get copies the answer out and Set its status, and each
// releases its own request.
func blockingGetModel(tb testing.TB) (step func()) {
	r := newTestRig(rigOpts{transport: RDMA, pipeline: server.Async})
	return driverModel(tb, r, func(p *sim.Proc, c *Client) {
		if v, _, st := c.Get(p, "k"); st != protocol.StatusOK || v != r {
			panic("blocking GET model: answered " + st.String())
		}
	})
}

func blockingSetModel(tb testing.TB) (step func()) {
	r := newTestRig(rigOpts{transport: RDMA, pipeline: server.Async})
	return driverModel(tb, r, func(p *sim.Proc, c *Client) {
		if st := c.Set(p, "k", 512, tb, 0, 0); st != protocol.StatusStored {
			panic("blocking SET model: answered " + st.String())
		}
	})
}

func rpcModel(tb testing.TB, op Op, want protocol.Status) (step func()) {
	r := newTestRig(rigOpts{transport: RDMA, pipeline: server.Async})
	return opModel(tb, r, op, func(req *Req) {
		if req.Status != want {
			panic("op model: " + req.Op.String() + " answered " + req.Status.String())
		}
	})
}

// bypassHitModel is opModel for one 512-byte inline bypass hit: Issue, the
// resolver process, the slot READ out and back, completion, Wait. No hit
// ticks a hot-set refresh: the counter restarts after each.
func bypassHitModel(tb testing.TB) (step func()) {
	r := newBypassRig()
	return opModel(tb, r, Op{Code: protocol.OpGet, Key: "k"}, func(req *Req) {
		if !req.Bypassed() {
			panic("bypass hit model: GET did not resolve one-sided")
		}
		r.client.hotGets = 0
	})
}

// sampledModel is bypassHitModel for the hit that ticks a hot-set refresh:
// the hit, and its key carried to the server's heat sketch on one
// OpDirQuery out and the directory answer back.
func sampledModel(tb testing.TB) (step func()) {
	r := newBypassRig()
	refreshes := int64(0)
	return opModel(tb, r, Op{Code: protocol.OpGet, Key: "k"}, func(req *Req) {
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
func retransmitModel(tb testing.TB) (step func()) {
	r := newTestRig(rigOpts{transport: RDMA, pipeline: server.Async})
	r.fabric.SetFaults(loseFirstAttempts())
	return opModel(tb, r, Op{Code: protocol.OpGet, Key: "k"}, func(req *Req) {
		if req.Attempts != 2 || req.Status != protocol.StatusOK {
			panic("retransmit model: the GET was not answered on its second attempt")
		}
	}, WithRetry(RetryPolicy{MaxAttempts: 2, AttemptTimeout: 20 * sim.Microsecond, Jitter: -1}))
}

func hedgeModel(tb testing.TB) (step func()) {
	r := newTestRig(rigOpts{transport: RDMA, pipeline: server.Async, servers: 2})
	r.fabric.SetFaults(loseFirstAttempts())
	return opModel(tb, r, Op{Code: protocol.OpGet, Key: "k"}, func(req *Req) {
		if req.Attempts != 2 || req.Status != protocol.StatusNotFound {
			panic("hedge model: the GET was not answered by its hedge")
		}
	}, WithHedge(20*sim.Microsecond))
}

func fallbackModel(tb testing.TB) (step func()) {
	return opModel(tb, newBypassRig(), Op{Code: protocol.OpGet, Key: "absent"}, func(req *Req) {
		if req.Attempts != 2 || req.Bypassed() || req.Status != protocol.StatusNotFound {
			panic("fallback model: the GET was not answered by its RPC fallback")
		}
	})
}

// allocTable is the client's line of make allocs: one operation each, end to
// end, then what a GET costs when its first attempt is not the one that
// answers it.
//
// What one operation allocates, every layer under the client included:
// nothing. The stored item of a SET comes off its manager's free list and
// goes back once the next SET of its key has replaced it (hybridslab.Item).
// The request handle comes off the client's free list and goes back at the
// caller's Release; its attempt — the wire message rides inside it; its
// options are parsed into the client's scratch record — comes off the
// client's list of attempts and goes back at its last hold once the request
// has ended: the answer to its message, the TX engine's post. The server's
// answer comes off the store's free list and goes back once the client has
// landed it and the message carrying it has been recycled
// (protocol.NewReply). A bypass hit's resolver runs on a recycled process,
// spawned with a function bound once per client, and takes the GET's
// resolution — a record off the client's free list, its READ's wait inside
// it — from the client's resolver queue. The hit that ticks a hot-set
// refresh adds nothing: the refresh goes out from the connection's
// long-lived refresher on a pooled request record, and the server answers
// every query with a pooled reply carrying the one DirectoryInfo it holds for
// its hot-set version and epoch. Its fabric messages — an RPC's request and
// response, a hit's READ out and back — cost nothing: each verbs transfer
// comes off its HCA's free list and goes back after delivery. The blocking
// Get and Set copy their answer out and release their own request. Nothing
// is allocated per value byte.
//
// A second attempt — a retransmit, a hedge, a bypass fallback — comes off
// the same list as the first, and chaining a request's attempts costs a
// pointer in a record that exists anyway. What a ceiling counts is the
// helper that made the second attempt, and the first attempt when its
// message keeps it: the message the fabric lost goes back to its HCA's free
// list as the rest of the traffic does, the answer included, and costs
// nothing. A fallback's first attempt never left the client, so both
// attempts and the handle are recycled, and its resolver is spawned with no
// closure: 0. A retransmit's or a hedge's first attempt was sent and never
// answered — the server may still read its message — so it is never
// recycled and each such GET takes a fresh one (1); the handle, which the
// message does not pin, is recycled. A hedged GET is that attempt plus the
// hedger's closure (1): 2. A retransmitted GET is that attempt plus the
// guard's closure (1): 2. Its policy has no jitter, so the guard builds no
// jitter source, and it waits on the request's completion flag and its nudge
// directly, with no joined event and no observers. An event chains its
// waiters through their wakeups, so a second waiter costs nothing, and a
// canceled one goes back to the kernel's list when its event fires: the
// retransmit fires the nudge before re-arming it, and finish fires it before
// the attempt carrying it goes back zeroed.
var allocTable = []struct {
	name    string
	model   func(testing.TB) (step func())
	ceiling float64
}{
	{"RPCSet", func(tb testing.TB) func() {
		return rpcModel(tb, Op{Code: protocol.OpSet, Key: "k", ValueSize: 512, Value: tb}, protocol.StatusStored)
	}, 0},
	{"RPCGet", func(tb testing.TB) func() {
		return rpcModel(tb, Op{Code: protocol.OpGet, Key: "k"}, protocol.StatusOK)
	}, 0},
	{"BlockingSet", blockingSetModel, 0},
	{"BlockingGet", blockingGetModel, 0},
	{"BypassHit", bypassHitModel, 0},
	{"BypassSampled", sampledModel, 0},
	{"Retransmit", retransmitModel, 2},
	{"Hedge", hedgeModel, 2},
	{"BypassFallback", fallbackModel, 0},
}

// TestOperationAllocationCeilings logs each row's name=count for make allocs:
// a new allocation anywhere on an operation's path fails here first.
func TestOperationAllocationCeilings(t *testing.T) {
	for _, row := range allocTable {
		t.Run(row.name, func(t *testing.T) {
			step := row.model(t)
			step() // warm: pools, rings, maps, the directory bootstrap
			got := testing.AllocsPerRun(500, step)
			if t.Logf("%s=%v", row.name, got); got > row.ceiling {
				t.Errorf("%s=%v, ceiling %v", row.name, got, row.ceiling)
			}
		})
	}
}

// BenchmarkAllocs runs allocTable's rows as sub-benchmarks.
func BenchmarkAllocs(b *testing.B) {
	for _, row := range allocTable {
		b.Run(row.name, func(b *testing.B) {
			step := row.model(b)
			step()
			b.ReportAllocs()
			for b.Loop() {
				step()
			}
		})
	}
}

// Req is allocated once per operation by a caller that never releases, and
// the benchmark's host_bytes_per_op has a 2 % bound; an attempt is allocated
// once per message a server never answered, as every other one is recycled.
// The attempt ring and the breaker's probe holder cost no bytes. Req is 80
// bytes, the 80-byte class: the answer (Op, Status and Flags in one word, the
// value, CAS, timestamps and attempt count), one pointer — the latest attempt
// while it is in flight — and its flags and hold count in one word. Nothing
// of its in-flight state is on it: the key, the wire id and the connection
// ride on its attempts, and the completion flag's waiters on its first.
// attempt is 192, the 192-byte class: the 88-byte message (its key's carried
// hash included), the state, credit and frame bookkeeping with the busy hint
// and the retry flag in the padding after state, the buffer-reusable, guard
// and completion events (a request's first attempt's), and the hold count. The resolution is pooled per client, so its size is not per
// operation; its pin catches one that grows unseen.
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
		{"core.resolution", unsafe.Sizeof(resolution{})},
		{"sim.Event", unsafe.Sizeof(sim.Event{})},
		{"simnet.Flight", unsafe.Sizeof(simnet.Flight{})},
	} {
		line += fmt.Sprintf(" %s=%d/%d", r.name, r.size, sizeClass(r.size))
	}
	t.Log(line + "  (unsafe.Sizeof/size class)")
	if got := unsafe.Sizeof(Req{}); got != 80 {
		t.Errorf("Req is %d bytes, want 80 (the 80-byte size class)", got)
	}
	if got := unsafe.Sizeof(resolution{}); got > 96 {
		t.Errorf("resolution is %d bytes, over the 96-byte size class (96 when pooled)", got)
	}
	if got := unsafe.Sizeof(attempt{}); got != 192 {
		t.Errorf("attempt is %d bytes, want 192", got)
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
