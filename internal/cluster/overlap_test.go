package cluster

import (
	"fmt"
	"testing"

	"hybridkv/internal/core"
	"hybridkv/internal/history"
	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
)

// Two writes of one key in flight on one coordinator — the shape the
// non-blocking windows and the frames of Section IV produce by design — must
// both be ordered: SET k=1 then SET k=2, neither awaited, then GET k, with no
// fault injected. Each round must carry its own epoch; when both rounds were
// opened under the same one (every round of a frame, and every pipelined
// arrival, is opened before any of them is applied) the peers acked the second
// as a duplicate delivery of the first, the coordinator completed it as
// overwritten, and it was answered STORED and applied nowhere. The history the
// client saw goes to the chaos soak's checker too: it must be clean here, and
// it reported stale-read while the defect stood.
func TestUnawaitedSetsOfOneKeyBothApply(t *testing.T) {
	const key = "overlap:k"
	for _, d := range []Design{HRDMAOptBlock, HRDMAOptNonBI} {
		for _, framed := range []bool{false, true} {
			shape := "window"
			if framed {
				shape = "frame"
			}
			t.Run(fmt.Sprintf("%s/%v", shape, d.Pipeline()), func(t *testing.T) {
				cl := New(Config{Design: d, Profile: ClusterA(), Servers: 3, ServerMem: 8 << 20, ReplicationFactor: 3})
				c := cl.Clients[0]
				log := &history.Log{Replicated: true}
				cl.Env.Spawn("writer", func(p *sim.Proc) {
					if framed {
						if err := c.BeginBatch(); err != nil {
							t.Fatal(err)
						}
					}
					var sets []*core.Req
					for seq := uint64(1); seq <= 2; seq++ {
						req, err := c.Issue(p, core.Op{Code: protocol.OpSet, Key: key, ValueSize: 512, Value: seq})
						if err != nil {
							t.Fatal(err)
						}
						sets = append(sets, req)
					}
					if framed {
						if err := c.Flush(p); err != nil {
							t.Fatal(err)
						}
					}
					c.WaitAll(p, sets)
					for i, req := range sets {
						if req.Status != protocol.StatusStored {
							t.Errorf("SET %s=%d: %v", key, i+1, req.Status)
						}
						log.Record(history.Entry{Kind: history.Write, Key: key, Seq: uint64(i + 1),
							OK: req.Status == protocol.StatusStored, IssuedAt: req.IssuedAt, CompletedAt: req.CompletedAt})
					}
					issued := p.Now()
					v, _, st := c.Get(p, key)
					seen, _ := v.(uint64)
					if st != protocol.StatusOK || seen != 2 {
						t.Errorf("GET %s after both SETs were answered: %v (%v), want 2", key, v, st)
					}
					log.Record(history.Entry{Kind: history.Read, Key: key, Seq: seen, Hit: st == protocol.StatusOK,
						OK: true, IssuedAt: issued, CompletedAt: p.Now()})
					for sid, s := range cl.Servers {
						if v, _, _, _, ok := s.Store().ReadItem(p, key); !ok || v != uint64(2) {
							t.Errorf("server %d holds %v for %s (present=%v), want 2", sid, v, key, ok)
						}
					}
				})
				cl.Env.Run()
				if framed && c.Frames != 1 {
					t.Fatalf("frames=%d, want the two SETs in one frame", c.Frames)
				}
				for _, v := range log.Check() {
					t.Errorf("history: %v", v)
				}
			})
		}
	}
}
