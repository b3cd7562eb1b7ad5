package core

import (
	"testing"
	"unsafe"

	"hybridkv/internal/protocol"
	"hybridkv/internal/server"
	"hybridkv/internal/sim"
)

// opModel returns a step that runs one operation end to end — Issue, the
// request's fabric message, the server's dispatch and storage phases, the
// response's fabric message, Wait — between a client node and an async
// server node, driven by a parked process so that the step itself spawns
// nothing. The value is pointer-shaped and the options are built once:
// boxing and option closures are the caller's cost, not the client's.
func opModel(r *testRig, op Op, check func(*Req), opts ...IssueOption) (step func()) {
	c := r.client
	kick := sim.NewQueue[struct{}](r.env, 0)
	r.env.Spawn("driver", func(p *sim.Proc) {
		c.Set(p, "k", 512, r, 0, 0)
		for {
			if _, ok := kick.Get(p); !ok {
				return
			}
			req, err := c.Issue(p, op, opts...)
			if err != nil {
				panic(err)
			}
			c.Wait(p, req)
			check(req)
		}
	})
	return func() {
		kick.TryPut(struct{}{})
		r.env.Run()
	}
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
// resolver process, the slot READ out and back, completion, Wait.
func bypassHitModel() (step func()) {
	return opModel(newBypassRig(), Op{Code: protocol.OpGet, Key: "k"}, func(req *Req) {
		if !req.Bypassed() {
			panic("bypass hit model: GET did not resolve one-sided")
		}
	}, WithReadPath(ReadBypass)) // forced: no 1-in-64 RPC heat sample
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
	}, WithReadPath(ReadBypass))
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
func BenchmarkBypassHit(b *testing.B) { benchOp(b, bypassHitModel()) }

// The second attempt's line: what a GET costs when its first attempt is not
// the one that answers it.
func BenchmarkRetransmit(b *testing.B)     { benchOp(b, retransmitModel()) }
func BenchmarkHedge(b *testing.B)          { benchOp(b, hedgeModel()) }
func BenchmarkBypassFallback(b *testing.B) { benchOp(b, fallbackModel()) }

// What one operation allocates, every layer under the client included. An
// RPC is the request handle (1: its attempt, wire message and options ride
// inside it), two fabric messages (2: request and response, each one verbs
// transfer) and the server's response record (1); a SET adds the stored item
// (1). A bypass hit is the request handle (1), its resolver's closure (1 —
// the resolver itself runs on a recycled process) and two fabric messages (2:
// READ request and READ response). Nothing is allocated per value byte. The
// ceilings are what is measured: a new allocation anywhere on the path fails
// here first.
func TestOperationAllocationCeilings(t *testing.T) {
	for _, tc := range []struct {
		name    string
		step    func()
		ceiling float64
	}{
		{"RPC SET round trip", rpcModel(Op{Code: protocol.OpSet, Key: "k", ValueSize: 512, Value: t}, protocol.StatusStored), 5},
		{"RPC GET round trip", rpcModel(Op{Code: protocol.OpGet, Key: "k"}, protocol.StatusOK), 4},
		{"inline bypass hit", bypassHitModel(), 4},
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
// the extra traffic and the helper that made the attempt. A hedged GET is an
// RPC GET (4) plus the message the home server never hears (1), the hedger's
// closure (1), the second waiter it makes on the completion flag (1) and the
// attempt (1). A fallback is an RPC GET (4) plus the resolver's closure and its
// READ out and back (3) and the attempt (1). A retransmitted GET is an RPC GET
// (4) plus the lost message (1), the attempt (1) and the guard: its closure
// (1), its jitter source (2), and two attempt-waits of five each — the joined
// event and the two observers it watches the completion flag and the nudge
// through — with five waiter records between them (15). The counts are the
// parent commit's (e6fe223), measured there with this test.
func TestSecondAttemptAllocationCeilings(t *testing.T) {
	for _, tc := range []struct {
		name    string
		step    func()
		ceiling float64
	}{
		{"retransmitted GET", retransmitModel(), 24},
		{"hedged GET", hedgeModel(), 8},
		{"bypass fallback", fallbackModel(), 8},
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
// bytes. The sizes are the parent commit's (e6fe223).
func TestRequestRecordSizes(t *testing.T) {
	if got := unsafe.Sizeof(Req{}); got != 560 {
		t.Errorf("Req is %d bytes, was 560", got)
	}
	if got := unsafe.Sizeof(attempt{}); got != 152 {
		t.Errorf("attempt is %d bytes, was 152", got)
	}
}
