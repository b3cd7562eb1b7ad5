package cluster

import (
	"fmt"
	"testing"

	"hybridkv/internal/core"
	"hybridkv/internal/fault"
	"hybridkv/internal/protocol"
	"hybridkv/internal/server"
	"hybridkv/internal/sim"
)

// TestReplicatedPathMatrix is the replicated half of the server's path matrix
// (internal/server TestPathMatrix), driven through the real client: eight
// WithBufferAck SETs coordinated by one server at R = 3, as bare requests and
// as one BeginBatch/Flush frame, against the sync and the async pipeline.
// Every write must land on all three replicas; the async pipeline sends
// exactly one BufferAck per receive — eight bare, one for the frame — and
// only once the last forward is acked; the sync pipeline never acks.
func TestReplicatedPathMatrix(t *testing.T) {
	const sets = 8
	for _, d := range []Design{HRDMAOptBlock, HRDMAOptNonBB} {
		for _, framed := range []bool{false, true} {
			shape := "bare"
			if framed {
				shape = "frame"
			}
			t.Run(fmt.Sprintf("%s/%v", shape, d.Pipeline()), func(t *testing.T) {
				cl := New(Config{Design: d, Profile: ClusterA(), Servers: 3, ServerMem: 8 << 20, ReplicationFactor: 3})
				// Every message to or from a backup takes 50 µs longer (well
				// inside the replicator's ack timeout): a write's chain
				// completes long after an ack sent at admission would have
				// reached the client, so which came first is unmistakable.
				slow := fault.New(fault.Config{})
				slow.AddSlow("server1", 0, sim.Second, 50*sim.Microsecond, 0)
				slow.AddSlow("server2", 0, sim.Second, 50*sim.Microsecond, 0)
				cl.Fabric.SetFaults(slow)
				c := cl.Clients[0]
				var keys []string
				for i := 0; len(keys) < sets; i++ { // all coordinated by server 0
					if key := fmt.Sprintf("row:%03d", i); cl.Membership.Ring().Replicas(key, 3)[0] == 0 {
						keys = append(keys, key)
					}
				}
				applied := func() (n int64) { // SETs the two backups have begun
					return cl.Servers[1].Store().SetOps + cl.Servers[2].Store().SetOps
				}
				var reqs []*core.Req
				appliedAtFirstAck := int64(-1)
				cl.Env.Spawn("writer", func(p *sim.Proc) {
					if framed {
						if err := c.BeginBatch(); err != nil {
							t.Fatal(err)
						}
					}
					for i, key := range keys {
						req, err := c.Issue(p, core.Op{Code: protocol.OpSet, Key: key, ValueSize: 512, Value: uint64(i + 1)}, core.WithBufferAck())
						if err != nil {
							t.Fatal(err)
						}
						reqs = append(reqs, req)
					}
					if framed {
						if err := c.Flush(p); err != nil {
							t.Fatal(err)
						}
					}
					for !reqs[0].Done() {
						if reqs[0].Acked() && appliedAtFirstAck < 0 {
							appliedAtFirstAck = applied()
						}
						p.Sleep(100 * sim.Nanosecond)
					}
					c.WaitAll(p, reqs)
					for i, key := range keys {
						for sid, s := range cl.Servers {
							if v, _, _, _, ok := s.Store().ReadItem(p, key); !ok || v != uint64(i+1) {
								t.Errorf("server %d holds %v for %s (present=%v), want %d", sid, v, key, ok, i+1)
							}
						}
					}
				})
				cl.Env.Run()
				if framed && (c.Frames != 1 || c.FrameOps != sets) {
					t.Fatalf("frames=%d carrying %d ops, want one frame of %d", c.Frames, c.FrameOps, sets)
				}
				for i, req := range reqs {
					if req.Status != protocol.StatusStored {
						t.Errorf("%s: %v", keys[i], req.Status)
					}
					if req.Acked() != (d.Pipeline() == server.Async) {
						t.Errorf("%s: Acked()=%v on the %v pipeline", keys[i], req.Acked(), d.Pipeline())
					}
				}
				var acks int64
				for _, s := range cl.Servers {
					acks += s.Acks
				}
				wantAcks := int64(0)
				if d.Pipeline() == server.Async {
					wantAcks = sets
					if framed {
						wantAcks = 1
					}
					// Bare: request 0's chain is complete (both backups began
					// its SET, delivered 50 µs late). Framed: every member's is.
					least := int64(2)
					if framed {
						least = 2 * sets
					}
					if appliedAtFirstAck < least {
						t.Errorf("first BufferAck seen with %d backup applies begun, want ≥ %d: it was sent before its forwards were acked",
							appliedAtFirstAck, least)
					}
				}
				if acks != wantAcks {
					t.Errorf("servers sent %d BufferAcks, want %d", acks, wantAcks)
				}
			})
		}
	}
}
