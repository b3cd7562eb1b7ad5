package core

import (
	"fmt"
	"testing"

	"hybridkv/internal/protocol"
	"hybridkv/internal/server"
	"hybridkv/internal/sim"
	"hybridkv/internal/store"
)

// newBypassRig is one bypass-enabled client against one async server that
// publishes a directory of the default geometry.
func newBypassRig() *testRig {
	r := newTestRig(rigOpts{
		transport: RDMA, pipeline: server.Async,
		clientCfg: func(c *Config) { c.Bypass = true },
	})
	srv := r.servers[0]
	srv.AttachBypassDirectory(store.NewDirectory(srv.Device().AllocPD(), 0))
	return r
}

// bypassGet resolves key on the forced-bypass path (no 1-in-64 RPC heat
// sample) and reports the READs it cost.
func bypassGet(t *testing.T, p *sim.Proc, c *Client, key string, want any) (reads int64) {
	t.Helper()
	before := c.Stats().BypassReads
	req, err := c.Issue(p, Op{Code: protocol.OpGet, Key: key}, WithReadPath(ReadBypass))
	if err != nil {
		t.Fatalf("issue %q: %v", key, err)
	}
	c.Wait(p, req)
	if !req.Bypassed() || req.Status != protocol.StatusOK || req.Value != want {
		t.Fatalf("GET %q: bypassed=%v status=%v value=%v, want a bypass hit with %v",
			key, req.Bypassed(), req.Status, req.Value, want)
	}
	return c.Stats().BypassReads - before
}

// A quiescent small-value GET is exactly one READ: on first touch, on
// repeat, and immediately after a SET of the same key — there is no client
// state for a write to leave stale.
func TestBypassInlineHitIsOneRead(t *testing.T) {
	r := newBypassRig()
	c := r.client
	keys := []string{"small:0", "small:1", "small:2", "small:3"}
	r.env.Spawn("driver", func(p *sim.Proc) {
		for i, key := range keys {
			c.Set(p, key, protocol.DirInlineMax, i, 0, 0)
		}
		gets := int64(0)
		for pass := 0; pass < 2; pass++ { // first touch, then repeat
			for i, key := range keys {
				if n := bypassGet(t, p, c, key, i); n != 1 {
					t.Errorf("pass %d GET %q cost %d READs", pass, key, n)
				}
				gets++
			}
		}
		for round := 0; round < 3; round++ {
			for i, key := range keys {
				val := 100*round + i
				if st := c.Set(p, key, 64+round, val, 0, 0); st != protocol.StatusStored {
					t.Fatalf("set %q: %v", key, st)
				}
				if n := bypassGet(t, p, c, key, val); n != 1 {
					t.Errorf("GET %q right after its SET cost %d READs", key, n)
				}
				gets++
			}
		}
		st := c.Stats()
		if st.BypassHits != gets || st.BypassReads != st.BypassHits || st.BypassFastPath != st.BypassHits {
			t.Errorf("hits=%d reads=%d one-READ hits=%d over %d GETs", st.BypassHits, st.BypassReads, st.BypassFastPath, gets)
		}
		if st.BypassFallbacks != 0 || st.BypassReprobes != 0 {
			t.Errorf("quiescent hits fell back %d times, re-probed %d times", st.BypassFallbacks, st.BypassReprobes)
		}
		if n := len(c.conns[0].locs); n != 0 {
			t.Errorf("inline hits left %d cached locations behind", n)
		}
	})
	r.env.Run()
}

// An out-of-line value costs two READs once (slot, then segment) and one
// READ from the cached offset afterwards; a SET supersedes the cached
// segment, which the next GET discovers and replaces.
func TestBypassOutOfLineRepeatHitsUseCachedOffset(t *testing.T) {
	r := newBypassRig()
	c := r.client
	const key = "large"
	r.env.Spawn("driver", func(p *sim.Proc) {
		c.Set(p, key, 8<<10, "v1", 0, 0)
		if n := bypassGet(t, p, c, key, "v1"); n != 2 {
			t.Errorf("first out-of-line GET cost %d READs, want slot + segment", n)
		}
		if _, cached := c.conns[0].locs[key]; !cached {
			t.Fatal("segment location not cached after the first resolution")
		}
		for i := 0; i < 3; i++ {
			if n := bypassGet(t, p, c, key, "v1"); n != 1 {
				t.Errorf("repeat GET %d cost %d READs, want one from the cached offset", i, n)
			}
		}
		if st := c.Stats(); st.BypassFastPath != 3 {
			t.Errorf("one-READ hits = %d, want the 3 repeats", st.BypassFastPath)
		}
		c.Set(p, key, 8<<10, "v2", 0, 0)
		if n := bypassGet(t, p, c, key, "v2"); n != 3 {
			t.Errorf("GET after SET cost %d READs, want dead offset + slot + segment", n)
		}
		if n := bypassGet(t, p, c, key, "v2"); n != 1 {
			t.Errorf("GET from the refreshed offset cost %d READs", n)
		}
	})
	r.env.Run()
}

// A value crossing DirInlineMax in both directions (512 B → 8 KB → 512 B):
// every GET returns the committed value, the grown value is not served from
// stale inline bytes, and the shrunk one leaves no live cached offset.
func TestBypassValueCrossingInlineMax(t *testing.T) {
	r := newBypassRig()
	c := r.client
	const key = "resized"
	r.env.Spawn("driver", func(p *sim.Proc) {
		c.Set(p, key, 512, "small-1", 0, 0)
		if n := bypassGet(t, p, c, key, "small-1"); n != 1 {
			t.Errorf("inline GET cost %d READs", n)
		}

		c.Set(p, key, 8<<10, "large", 0, 0)
		if n := bypassGet(t, p, c, key, "large"); n != 2 {
			t.Errorf("GET after growing past DirInlineMax cost %d READs", n)
		}
		if n := bypassGet(t, p, c, key, "large"); n != 1 {
			t.Errorf("repeat GET of the grown value cost %d READs", n)
		}

		c.Set(p, key, 512, "small-2", 0, 0)
		if n := bypassGet(t, p, c, key, "small-2"); n != 2 {
			t.Errorf("GET after shrinking cost %d READs, want dead offset + slot", n)
		}
		if loc, cached := c.conns[0].locs[key]; cached {
			t.Errorf("shrunk value left a cached offset behind: %+v", loc)
		}
		if n := bypassGet(t, p, c, key, "small-2"); n != 1 {
			t.Errorf("inline GET after the shrink cost %d READs", n)
		}
	})
	r.env.Run()
}

// The directory bootstrap is a key-less control op the server answers only as
// a bare request. A bypass client that resolves its first GETs inside an
// explicit batch window must still bootstrap once, on its own doorbell: the
// query is never parked in the window nor swept into the window's frame,
// where nothing would answer it (the GET behind it would fall back to RPC and
// the next one bootstrap again).
func TestBypassBootstrapNeverRidesAFrame(t *testing.T) {
	r := newBypassRig()
	c := r.client
	r.env.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < 8; i++ { // blocking SETs: RPCs, no directory needed yet
			c.Set(p, fmt.Sprintf("win:%d", i), 64, i, 0, 0)
		}
		if err := c.BeginBatch(); err != nil {
			t.Fatal(err)
		}
		var reqs []*Req
		issue := func(op Op) {
			req, err := c.Issue(p, op)
			if err != nil {
				t.Fatal(err)
			}
			reqs = append(reqs, req)
		}
		issue(Op{Code: protocol.OpSet, Key: "win:set", ValueSize: 64, Value: "v"})
		for i := 0; i < 8; i++ {
			issue(Op{Code: protocol.OpGet, Key: fmt.Sprintf("win:%d", i)}) // auto read path
		}
		if err := c.Flush(p); err != nil {
			t.Fatal(err)
		}
		c.WaitAll(p, reqs)
		st := c.Stats()
		if st.BypassBootstraps != 1 || st.BypassFallbacks != 0 {
			t.Errorf("bootstraps=%d fallbacks=%d with a batch window open, want 1 and 0 (as without one)",
				st.BypassBootstraps, st.BypassFallbacks)
		}
		if reqs[0].Status != protocol.StatusStored {
			t.Errorf("windowed SET: %v", reqs[0].Status)
		}
		for i, req := range reqs[1:] {
			if req.Status != protocol.StatusOK || req.Value != i {
				t.Errorf("GET win:%d: status %v value %v", i, req.Status, req.Value)
			}
		}
	})
	r.env.Run()
}

// The other way into a frame is the TX engine's sweep once credits run out:
// it must leave the control op to its own doorbell too, like a value over
// BatchInlineMax.
func TestSweepLeavesTheControlOpOutOfTheFrame(t *testing.T) {
	r := newBypassRig()
	c, cn := r.client, r.client.conns[0]
	ops := []Op{
		{Code: protocol.OpSet, Key: "a", ValueSize: 64},
		{Code: protocol.OpDirQuery},
		{Code: protocol.OpSet, Key: "big", ValueSize: BatchInlineMax + 1},
		{Code: protocol.OpGet, Key: "b"},
	}
	var atts []*attempt
	for _, op := range ops { // queued, not sent: no process has run yet
		req := new(Req)
		c.initReq(req, op)
		c.enqueueWire(req, cn)
		atts = append(atts, req.cur)
	}
	head, _ := cn.txq.TryGet()
	batch, alone := cn.drainBatch(head.att)
	if len(batch) != 2 || batch[0] != atts[0] || batch[1] != atts[3] {
		t.Errorf("frame holds %d members, want the SET and the GET", len(batch))
	}
	if len(alone) != 2 || alone[0] != atts[1] || alone[1] != atts[2] {
		t.Errorf("%d ops left to their own doorbells, want the control op and the oversized SET", len(alone))
	}
}
