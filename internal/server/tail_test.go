package server

import (
	"fmt"
	"testing"

	"hybridkv/internal/hybridslab"
	"hybridkv/internal/protocol"
	"hybridkv/internal/replication"
	"hybridkv/internal/sim"
	"hybridkv/internal/simnet"
	"hybridkv/internal/slab"
	"hybridkv/internal/store"
	"hybridkv/internal/verbs"
)

// A replicated write's storage worker is free once the write is applied: the
// wait for the backup's ack, and the answers after it, run on a responder.
// TestReplicatedWritesLeaveTheStoragePoolFree keeps the backup from acking and
// watches what the storage pool still does.

// tailRig is a replicated pair on the async pipeline, R = 2 — server 0
// coordinates every key, server 1 is its backup — and a raw client on server
// 0's QP that records every answer with the instant it landed.
type tailRig struct {
	env         *sim.Env
	srv, backup *Server
	respMR      int
	post        func(p *sim.Proc, size int, payload any)
	answers     map[uint64]tailAnswer
	acks        int
}

type tailAnswer struct {
	resp *protocol.Response
	at   sim.Time
}

func newTailRig() *tailRig {
	env := sim.NewEnv()
	fab := simnet.New(env, simnet.FDRInfiniBand())
	cnode := fab.AddNode("client")
	r := &tailRig{env: env, answers: map[uint64]tailAnswer{}}
	mem := replication.NewMembership(env, 2, []int{0, 1})
	var repls []*replication.Replicator
	for i := 0; i < 2; i++ {
		st := store.New(env, hybridslab.New(env, hybridslab.Config{Slab: slab.Config{MemLimit: 64 << 20}}, nil))
		srv := NewRDMA(env, fab.AddNode(fmt.Sprintf("server%d", i)), st, Config{Pipeline: Async})
		repl := replication.New(env, replication.Config{ID: i, NoScrub: true}, mem, st, srv.Device())
		srv.AttachReplicator(repl)
		srv.Start()
		repls = append(repls, repl)
		if i == 0 {
			r.srv = srv
		} else {
			r.backup = srv
		}
	}
	replication.Interconnect(repls)
	cdev := verbs.OpenDevice(cnode)
	recvCQ := cdev.CreateCQ(0)
	qp := cdev.CreateQP(cdev.CreateCQ(0), recvCQ)
	r.srv.AcceptQP(qp)
	for i := 0; i < 64; i++ {
		qp.PostRecv(verbs.RecvWR{})
	}
	r.respMR = cdev.AllocPD().RegisterMRSetup(2 << 20).LKey()
	r.post = func(p *sim.Proc, size int, payload any) {
		qp.PostSend(p, verbs.SendWR{Op: verbs.OpSend, Size: size, Payload: payload})
	}
	env.Spawn("collector", func(p *sim.Proc) {
		for {
			c := recvCQ.WaitPoll(p)
			qp.PostRecv(verbs.RecvWR{})
			resp := c.Payload.(*protocol.Response)
			if resp.Op == protocol.OpBufferAck {
				r.acks++
				continue
			}
			r.answers[resp.ReqID] = tailAnswer{resp: resp, at: p.Now()}
		}
	})
	return r
}

// send posts one bare request, its answers addressed to the client's region.
func (r *tailRig) send(p *sim.Proc, req *protocol.Request) {
	req.RespMR = r.respMR
	r.post(p, req.WireSize(), req)
}

func tailSet(id uint64, key string, ackWanted bool) *protocol.Request {
	return &protocol.Request{Op: protocol.OpSet, ReqID: id, Key: key, ValueSize: 4 << 10, Value: id, AckWanted: ackWanted}
}

func TestReplicatedWritesLeaveTheStoragePoolFree(t *testing.T) {
	// As many SETs as the server has storage workers, then a GET of another
	// key. With the backup crashed no ack ever comes, so each SET's round runs
	// through every resend and ends NO_REPLICA; a worker held through that
	// wait would make the GET wait for it too. The GET must be answered at its
	// time with the backup up, to the nanosecond.
	t.Run("a GET is not queued behind writes waiting for acks", func(t *testing.T) {
		const getID = 100
		var sent sim.Time
		run := func(crashed bool) (took sim.Time, r *tailRig) {
			r = newTailRig()
			sim.Drive(t, r.env, "client", func(p *sim.Proc) {
				r.send(p, tailSet(getID+1, "read-me", false))
				p.Sleep(100 * sim.Microsecond)
				if crashed {
					r.backup.Crash()
				}
				sent = p.Now()
				for i := 0; i < r.srv.cfg.StorageWorkers; i++ {
					r.send(p, tailSet(uint64(i+1), fmt.Sprintf("w%d", i), false))
				}
				t0 := p.Now()
				r.send(p, &protocol.Request{Op: protocol.OpGet, ReqID: getID, Key: "read-me"})
				p.Sleep(5 * sim.Millisecond)
				took = r.answers[getID].at - t0
			})
			if got := r.answers[getID].resp; got == nil || got.Status != protocol.StatusOK {
				t.Fatalf("backup crashed=%v: the GET was answered %+v, want a hit", crashed, got)
			}
			return took, r
		}
		clean, _ := run(false)
		wedged, r := run(true)
		for i := 0; i < r.srv.cfg.StorageWorkers; i++ {
			if a := r.answers[uint64(i+1)]; a.resp == nil || a.resp.Status != protocol.StatusNoReplica || a.at-sent < sim.Millisecond {
				t.Fatalf("the premise: SET %d was answered %+v after %v; want NO_REPLICA, the resends run out", i+1, a.resp, a.at-sent)
			}
		}
		t.Logf("the GET took %v with the backup up, %v with it crashed", clean, wedged)
		if wedged != clean {
			t.Errorf("the GET took %v behind %d writes waiting for acks, %v with the backup up", wedged, r.srv.cfg.StorageWorkers, clean)
		}
	})

	// More writes wait for acks than there are responders: the rest wait in
	// tailQ, holding their buffer bytes, and are answered once the backup is
	// back — STORED, acked once each, applied on the backup.
	t.Run("more writes than responders, then the backup recovers", func(t *testing.T) {
		r := newTailRig()
		n := responders + r.srv.cfg.StorageWorkers
		held := 0
		sim.DriveUntil(t, r.env, -1,
			sim.Driver{Name: "client", Fn: func(p *sim.Proc) {
				r.backup.Crash()
				for i := 0; i < n; i++ {
					req := tailSet(uint64(i+1), fmt.Sprintf("w%d", i), true)
					held += req.WireSize()
					r.send(p, req)
				}
			}},
			sim.Driver{Name: "probe", Fn: func(p *sim.Proc) {
				p.Sleep(200 * sim.Microsecond) // every write applied, no resend yet
				if q, w := r.srv.tailQ.Len(), r.srv.reqQ.Len(); q != n-responders || w != 0 {
					t.Errorf("%d tasks in tailQ and %d waiting for a worker, want %d and 0", q, w, n-responders)
				}
				if got := r.srv.slots.InUse(); got != held {
					t.Errorf("%d buffer bytes reserved with every write waiting for its ack, want all %d", got, held)
				}
				p.Sleep(200 * sim.Microsecond)
				r.backup.Restart()
			}})
		for i := 0; i < n; i++ {
			if a := r.answers[uint64(i+1)]; a.resp == nil || a.resp.Status != protocol.StatusStored {
				t.Errorf("SET %d answered %+v, want STORED once the backup was back", i+1, a.resp)
			}
		}
		if r.acks != n || r.backup.Store().SetOps != int64(n) {
			t.Errorf("%d BufferAcks and %d applies on the backup, want %d of each", r.acks, r.backup.Store().SetOps, n)
		}
		if got := r.srv.slots.InUse(); got != 0 {
			t.Errorf("%d buffer bytes still reserved", got)
		}
	})
}

// tailModel returns a step that sends one replicated write — a bare SET, or a
// frame of pathMembers SETs — from the raw client to its answer: admission,
// the forward to the backup, the storage phase on a worker, the ack, the tail
// on a responder. The requests are built once, so the step allocates only on
// the server side and the fabric.
func tailModel(tb testing.TB, frame bool) (step func()) {
	r := newTailRig()
	var reqs []*protocol.Request
	for i := 0; i < pathMembers; i++ {
		req := tailSet(uint64(i+1), fmt.Sprintf("k%d", i), false)
		req.RespMR = r.respMR
		reqs = append(reqs, req)
	}
	batch := &protocol.BatchFrame{BatchID: 100, Reqs: reqs}
	return sim.Stepper(tb, r.env, "driver", func(p *sim.Proc) {
		if frame {
			r.post(p, batch.WireSize(), batch)
		} else {
			r.send(p, reqs[0])
		}
	})
}

// allocTable is the server's line of make allocs: a replicated SET at R = 2
// whose tail runs on a responder, the whole write, client post to answer; and
// a frame of four such SETs.
//
// Handing a task to a responder is no allocation: the queue carries the task
// by value — a bare request's request, round and response in the task's
// one-element arrays, a frame's in the slices admission and the storage phase
// made — to a parked responder, whose waiter record and wakeup are recycled.
// So a replicated write costs exactly what it cost with its tail on the
// worker. A bare SET at R = 2 is 1: the reply, which the raw client never
// releases, so it never goes back on its store's list. The round and the
// forward and ack frames come off the replicators' lists and go back once the
// round is finished and each frame handled; its four fabric messages
// (request, forward, ack, answer) are none, each HCA reusing its transfers
// after delivery, and the stored item on each server comes off its manager's
// free list. A frame of four is 6: its four replies and the two slices of its
// members' rounds and answers. They were 3 and 14 while every round and frame
// was allocated afresh, and 5 and 22 while every stored item was too.
var allocTable = []struct {
	name    string
	model   func(testing.TB) (step func())
	ceiling float64
}{
	{"TailHandoff", func(tb testing.TB) func() { return tailModel(tb, false) }, 1},
	{"TailHandoffFrame", func(tb testing.TB) func() { return tailModel(tb, true) }, 6},
}

// TestTailHandoffAllocationCeiling logs each row's name=count for make allocs.
func TestTailHandoffAllocationCeiling(t *testing.T) {
	for _, row := range allocTable {
		t.Run(row.name, func(t *testing.T) {
			step := row.model(t)
			step() // warm: pools, rings and maps at size
			got := testing.AllocsPerRun(300, step)
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
