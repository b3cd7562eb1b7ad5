package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"hybridkv/internal/protocol"
	"hybridkv/internal/server"
	"hybridkv/internal/sim"
	"hybridkv/internal/simnet"
)

// replyFaults drops, duplicates and bit-flips the servers' messages — every
// one of them a reply from a store's free list — and leaves the client's
// alone. It counts the replies it drops: the fabric hands each back at its
// serialization end, as its last delivery would have.
type replyFaults struct {
	rng     *rand.Rand
	off     bool
	dropped int
}

func (f *replyFaults) Transmit(src, dst string, size int, now sim.Time) simnet.Verdict {
	if f.off || !strings.HasPrefix(src, "server") {
		return simnet.Verdict{}
	}
	switch f.rng.Intn(8) {
	case 0:
		f.dropped++
		return simnet.Verdict{Drop: true}
	case 1:
		return simnet.Verdict{Duplicate: true}
	case 2:
		return simnet.Verdict{Corrupt: true}
	case 3:
		return simnet.Verdict{Duplicate: true, Corrupt: true}
	}
	return simnet.Verdict{}
}

// TestPooledRepliesUnderFaults runs RPC GETs, SETs and CASes, each on its own
// key, through a fabric that drops, duplicates and corrupts every reply, on
// both transports. Each request must end with its own answer: a GET its key's
// value, a SET STORED, a CAS with a token nobody holds EXISTS — a reply
// recycled while a reader still held it would hand one request another's
// answer, or none. Once the run has quiesced, the census finds every reply
// the store ever made back on its free list, the dropped ones' too.
func TestPooledRepliesUnderFaults(t *testing.T) {
	const ops = 240
	for _, tr := range []struct {
		name      string
		transport Transport
	}{{"rdma", RDMA}, {"ipoib", IPoIB}} {
		t.Run(tr.name, func(t *testing.T) {
			r := newTestRig(rigOpts{transport: tr.transport, pipeline: server.Async})
			c := r.client
			faults := &replyFaults{rng: rand.New(rand.NewSource(39))}
			retry := WithRetry(RetryPolicy{MaxAttempts: 30, AttemptTimeout: 40 * sim.Microsecond, Jitter: -1})
			value := func(i int) string { return fmt.Sprintf("v%d", i) }
			op := func(i int) Op {
				key := fmt.Sprintf("k%d", i)
				switch i % 3 {
				case 0:
					return Op{Code: protocol.OpGet, Key: key}
				case 1:
					return Op{Code: protocol.OpSet, Key: key, ValueSize: 64, Value: value(i)}
				}
				return Op{Code: protocol.OpCAS, Key: key, ValueSize: 64, Value: "stale", CAS: math.MaxUint64}
			}
			check := func(i int, req *Req) {
				want, wantValue := protocol.StatusExists, any(nil)
				switch i % 3 {
				case 0:
					want, wantValue = protocol.StatusOK, value(i)
				case 1:
					want = protocol.StatusStored
				}
				if req.Status != want || (wantValue != nil && req.Value != wantValue) {
					t.Errorf("%v %s: %v %v after %d attempts, want %v %v",
						req.Op, req.key, req.Status, req.Value, req.Attempts, want, wantValue)
				}
			}
			sim.Drive(t, r.env, "driver", func(p *sim.Proc) {
				for i := 0; i < ops; i++ {
					if i%3 != 1 {
						c.Set(p, fmt.Sprintf("k%d", i), 64, value(i), 0, 0)
					}
				}
				r.fabric.SetFaults(faults)
				const window = 16
				for base := 0; base < ops; base += window {
					reqs := make([]*Req, 0, window)
					for i := base; i < base+window; i++ {
						req, err := c.Issue(p, op(i), retry)
						if err != nil {
							t.Fatalf("issue %d: %v", i, err)
						}
						reqs = append(reqs, req)
					}
					for k, req := range reqs {
						c.Wait(p, req)
						check(base+k, req)
						c.Release(req)
					}
				}
				// A socket keeps a late reply in its inbox until the next
				// exchange reads it as stale: one clean exchange drains them.
				faults.off = true
				c.Get(p, "k0")
			})
			if faults.dropped == 0 {
				t.Fatal("the injector dropped no reply")
			}
			if err := r.census().Err(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestResolverQueueOwnership issues 64 bypass GETs of distinct keys in one
// instant, half with values small enough to ride in their directory slot and
// half behind an out-of-line segment. Every resolver takes the oldest waiting
// GET off the client's queue: each GET must still complete with its own key's
// value, and the queue must be empty afterwards.
func TestResolverQueueOwnership(t *testing.T) {
	const n = 64
	r := newBypassRig()
	c := r.client
	size := func(i int) int {
		if i%2 == 0 {
			return 64
		}
		return 4 * protocol.DirInlineMax
	}
	reqs := make([]*Req, n)
	sim.Drive(t, r.env, "preload", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			c.Set(p, fmt.Sprintf("key%d", i), size(i), fmt.Sprintf("value%d", i), 0, 0)
		}
		p.Sleep(sim.Millisecond) // every directory publish has landed
	})
	gets := make([]sim.Driver, n)
	for i := range gets {
		gets[i] = sim.Driver{Name: "get", Fn: func(p *sim.Proc) {
			req, err := c.Issue(p, Op{Code: protocol.OpGet, Key: fmt.Sprintf("key%d", i)})
			if err != nil {
				t.Errorf("issue key%d: %v", i, err)
				return
			}
			reqs[i] = req
			c.Wait(p, req)
		}}
	}
	sim.DriveUntil(t, r.env, -1, gets...)
	bypassed := 0
	for i, req := range reqs {
		if req == nil {
			continue // its Issue failed, reported above
		}
		if want := fmt.Sprintf("value%d", i); req.Status != protocol.StatusOK || req.Value != want || req.ValueSize != size(i) {
			t.Errorf("GET key%d: %v %v (%d bytes), want OK %v (%d bytes)", i, req.Status, req.Value, req.ValueSize, want, size(i))
		}
		if req.Bypassed() {
			bypassed++
		}
	}
	if bypassed == 0 {
		t.Error("no GET resolved one-sided")
	}
	if got := c.resolving.Len(); got != 0 {
		t.Errorf("%d GETs still waiting for a resolver", got)
	}
}
