package cluster

import (
	"errors"
	"fmt"
	"hybridkv/internal/metrics"
	"testing"

	"hybridkv/internal/core"
	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
)

// TestFailedChainIsNeverAcked pins the ack rule on a replicated async
// server: a deferred BufferAck means "applied and on every replica", so a
// write whose chain failed (backup down, StatusNoReplica) is never acked and
// keeps its retry budget — as a bare request and, identically, as a member
// of a coalesced frame, whose one batch-wide ack covers every member.
func TestFailedChainIsNeverAcked(t *testing.T) {
	for _, framed := range []bool{false, true} {
		name := "bare"
		if framed {
			name = "framed"
		}
		t.Run(name, func(t *testing.T) {
			cl := New(Config{
				Design: HRDMAOptNonBB, Profile: ClusterA(),
				Servers: 2, ServerMem: 8 << 20, ReplicationFactor: 2,
			})
			c := cl.Clients[0]
			// Four keys coordinated by server 0; server 1, their backup, is down.
			var keys []string
			for i := 0; len(keys) < 4; i++ {
				key := fmt.Sprintf("chain:%03d", i)
				if cl.Membership.Ring().Replicas(protocol.KeyOf(key), 2)[0] == 0 {
					keys = append(keys, key)
				}
			}
			cl.Servers[1].Crash()
			// The attempt budget outlasts the coordinator's forward-resend
			// rounds, so each attempt ends in its NoReplica answer, not a timeout.
			retry := core.WithRetry(core.RetryPolicy{MaxAttempts: 2, AttemptTimeout: 10 * sim.Millisecond})
			var reqs []*core.Req
			sim.Drive(t, cl.Env, "writer", func(p *sim.Proc) {
				if framed {
					if err := c.BeginBatch(); err != nil {
						t.Fatal(err)
					}
				}
				for i, key := range keys {
					req, err := c.Issue(p, core.Op{Code: protocol.OpSet, Key: key, ValueSize: 512, Value: uint64(i + 1)},
						core.WithBufferAck(), retry)
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
				c.WaitAll(p, reqs)
			})
			if framed && c.Counters.Val(metrics.CFrames) == 0 {
				t.Fatal("the window sent no frame: the framed shape was not driven")
			}
			for i, req := range reqs {
				if !errors.Is(req.Err(), core.ErrNoReplica) {
					t.Errorf("%s: err %v, want ErrNoReplica", keys[i], req.Err())
				}
				if req.Acked() {
					t.Errorf("%s: Acked() = true for a write that is on one replica of two", keys[i])
				}
				if req.Attempts != 2 {
					t.Errorf("%s: %d attempts, want 2 (an unacked write may retransmit)", keys[i], req.Attempts)
				}
			}
		})
	}
}
