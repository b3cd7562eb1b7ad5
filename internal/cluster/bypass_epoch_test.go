package cluster

import (
	"hybridkv/internal/metrics"
	"testing"

	"hybridkv/internal/core"
	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
)

// A bypass client's per-server location cache and hot set are placement
// state: both are derived from a ring epoch, and a membership transition
// makes them wrong — the cached value-segment location may now belong to a
// server that no longer owns the key. On an epoch bump the client must drop
// every cached location and hot digest (metrics: epoch-invalidations) and a
// later bypass GET must re-resolve and still produce the genuine
// value, never a stale fast-path hit routed by the dead ring.
func TestBypassEpochChangeInvalidatesPlacement(t *testing.T) {
	cl := New(Config{
		Design:            HRDMAOptNonBB,
		Profile:           ClusterA(),
		Servers:           3,
		Clients:           1,
		ServerMem:         8 << 20,
		ReplicationFactor: 2,
		Bypass:            true,
		HotFanout:         true,
	})
	c := cl.Clients[0]
	const victim = "epoch:victim"

	// Phase 1: store the victim and resolve it twice via bypass; the
	// second GET must ride the per-key location cache.
	cl.Env.Spawn("phase1", func(p *sim.Proc) {
		if st := c.Set(p, victim, 4096, "genuine", 0, 0); st != protocol.StatusStored {
			t.Errorf("victim set: %v", st)
		}
		for pass := 0; pass < 2; pass++ {
			req, err := c.Issue(p, core.Op{Code: protocol.OpGet, Key: victim})
			if err != nil {
				t.Errorf("pass %d issue: %v", pass, err)
				return
			}
			c.Wait(p, req)
			if !req.Bypassed() || req.Status != protocol.StatusOK || req.Value != "genuine" {
				t.Errorf("pass %d: bypassed=%v status=%v value=%v",
					pass, req.Bypassed(), req.Status, req.Value)
			}
		}
	})
	cl.Env.Run()
	if c.Counters.Val(metrics.CBypassFastPath) == 0 {
		t.Fatalf("location cache never engaged: %d bypass hits", c.Counters.Val(metrics.CBypassHits))
	}
	if n := c.Counters.Val(metrics.CEpochInvalidations); n != 0 {
		t.Fatalf("placement invalidated before any transition: %d", n)
	}

	// Phase 2: a join bumps the membership epoch. The subscription fires
	// synchronously: every conn's location cache and hot set are dropped.
	cl.Env.Spawn("phase2", func(p *sim.Proc) {
		_, done := cl.Join()
		p.Wait(done)
		p.Sleep(5 * sim.Millisecond)
	})
	cl.Env.Run()
	if n := c.Counters.Val(metrics.CEpochInvalidations); n == 0 {
		t.Fatal("epoch bump never invalidated client placement state")
	}

	// Phase 3: the victim is still served with the genuine value under the
	// new ring — either a fresh bypass resolve or an RPC fallback, but never
	// a stale cached location.
	cl.Env.Spawn("phase3", func(p *sim.Proc) {
		req, err := c.Issue(p, core.Op{Code: protocol.OpGet, Key: victim})
		if err != nil {
			t.Errorf("post-join issue: %v", err)
			return
		}
		c.Wait(p, req)
		if req.Status != protocol.StatusOK || req.Value != "genuine" {
			t.Errorf("post-join GET status=%v value=%v", req.Status, req.Value)
		}
	})
	cl.Env.Run()
}

// Decommissioning a server must release every piece of per-server client
// state — breaker, location cache, directory, hot set — and the retired
// conn must refuse routing (allows() false) so no future op is pinned to a
// dead node. Observable from outside: the retired-conns counter fires, and
// every key the dead node used to serve still round-trips.
func TestDecommissionReleasesClientState(t *testing.T) {
	cl := New(Config{
		Design:            HRDMAOptNonBB,
		Profile:           ClusterA(),
		Servers:           3,
		Clients:           1,
		ServerMem:         8 << 20,
		ReplicationFactor: 2,
		Bypass:            true,
	})
	c := cl.Clients[0]
	const keys = 24

	cl.Env.Spawn("retire", func(p *sim.Proc) {
		for i := 0; i < keys; i++ {
			key := memKey(i)
			if st := c.Set(p, key, 2048, uint64(i+1), 0, 0); st != protocol.StatusStored {
				t.Errorf("set %q: %v", key, st)
			}
			// Resolve each key once through bypass so the conn-level caches
			// hold state for every server, including the future victim.
			req, err := c.Issue(p, core.Op{Code: protocol.OpGet, Key: key},
				core.WithReadPath(core.ReadAuto))
			if err != nil {
				t.Errorf("get %q issue: %v", key, err)
				return
			}
			c.Wait(p, req)
		}
		done := cl.Decommission(1)
		p.Wait(done)
		p.Sleep(5 * sim.Millisecond)
		for i := 0; i < keys; i++ {
			v, _, st := c.Get(p, memKey(i))
			if st != protocol.StatusOK {
				t.Errorf("get %q after decommission: %v", memKey(i), st)
				continue
			}
			if seq, _ := v.(uint64); seq != uint64(i+1) {
				t.Errorf("get %q observed seq %d, want %d", memKey(i), seq, i+1)
			}
		}
	})
	cl.Env.Run()

	if n := c.Counters.Val(metrics.CRetiredConns); n == 0 {
		t.Fatal("decommission never retired the victim's conn state")
	}
	if n := c.Counters.Val(metrics.CEpochInvalidations); n == 0 {
		t.Fatal("decommission's epoch bump never invalidated placement state")
	}
}
