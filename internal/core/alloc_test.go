package core

import (
	"testing"

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
