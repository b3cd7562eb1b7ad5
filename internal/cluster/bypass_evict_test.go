package cluster

import (
	"fmt"
	"hybridkv/internal/metrics"
	"testing"

	"hybridkv/internal/core"
	"hybridkv/internal/hybridslab"
	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
)

// A bypass client caches a key's value-segment location after resolving it
// once (the single-READ fast path). When slab pressure then evicts that key
// to SSD — EvictStaged republishes the slot mid-flush, EvictLanded lands it
// SSD-resident — the cached RAM location is dead: a later bypass GET
// must detect that via digest/version validation and fall back to RPC with
// the genuine value, never serve a stale RAM hit. The test observes the
// eviction lifecycle directly by wrapping the slab manager's notify hook
// around the directory's own observer.
func TestBypassEvictionInvalidatesLocationCache(t *testing.T) {
	cl := New(Config{
		Design: HRDMAOptNonBI, Profile: ClusterA(),
		ServerMem:    2 << 20,
		SlabPageSize: 256 << 10,
		Bypass:       true,
	})
	c := cl.Clients[0]
	srv := cl.Servers[0]
	const (
		valSize = 128 << 10
		victim  = "celeb:0"
	)

	// Record the victim's eviction lifecycle while forwarding every event to
	// the directory (the store's installed observer), so publication behaves
	// exactly as in production.
	dir := cl.Directories[0]
	staged, landed := 0, 0
	srv.Store().Manager().SetNotify(func(it *hybridslab.Item, ev hybridslab.NotifyEvent) {
		if it.Key == victim {
			switch ev {
			case hybridslab.EvictStaged:
				staged++
			case hybridslab.EvictLanded:
				landed++
			}
		}
		dir.EvictionUpdate(it, ev)
	})

	// Phase 1: the victim lands in RAM; two bypass GETs resolve it
	// and populate the per-key location cache (the second is the fast path).
	cl.Env.Spawn("phase1", func(p *sim.Proc) {
		if st := c.Set(p, victim, valSize, "genuine", 0, 0); st != protocol.StatusStored {
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

	// Phase 2: filler writes overrun the 2 MB RAM budget; the victim is the
	// coldest item and evicts first (EvictStaged, then EvictLanded once the
	// flush completes), republishing its slot SSD-resident.
	cl.Env.Spawn("filler", func(p *sim.Proc) {
		for i := 0; i < 48; i++ {
			c.Set(p, fmt.Sprintf("fill:%04d", i), valSize, i, 0, 0)
		}
	})
	cl.Env.Run()
	cl.SettleIO()
	if staged == 0 || landed == 0 {
		t.Fatalf("victim eviction lifecycle not observed: staged=%d landed=%d", staged, landed)
	}

	// Phase 3: the cached location now points at dead (or reused) RAM. The
	// bypass GET must refuse the one-sided result and come back via
	// RPC with the genuine value.
	fallbacks := c.Counters.Val(metrics.CBypassFallbacks)
	cl.Env.Spawn("phase3", func(p *sim.Proc) {
		req, err := c.Issue(p, core.Op{Code: protocol.OpGet, Key: victim})
		if err != nil {
			t.Errorf("post-eviction issue: %v", err)
			return
		}
		c.Wait(p, req)
		if req.Bypassed() {
			t.Errorf("post-eviction GET served via bypass: stale RAM hit")
		}
		if req.Status != protocol.StatusOK || req.Value != "genuine" {
			t.Errorf("post-eviction GET status=%v value=%v", req.Status, req.Value)
		}
	})
	cl.Env.Run()
	if got := c.Counters.Val(metrics.CBypassFallbacks); got <= fallbacks {
		t.Fatalf("eviction did not force an RPC fallback: %d -> %d", fallbacks, got)
	}
}
