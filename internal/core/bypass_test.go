package core

import (
	"fmt"
	"hybridkv/internal/metrics"
	"strings"
	"testing"

	"hybridkv/internal/protocol"
	"hybridkv/internal/server"
	"hybridkv/internal/sim"
	"hybridkv/internal/simnet"
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

// bypassGet resolves key on the bypass path and reports the READs it
// cost.
func bypassGet(t *testing.T, p *sim.Proc, c *Client, key string, want any) (reads int64) {
	t.Helper()
	before := c.Counters.Val(metrics.CBypassReads)
	req, err := c.Issue(p, Op{Code: protocol.OpGet, Key: key})
	if err != nil {
		t.Fatalf("issue %q: %v", key, err)
	}
	c.Wait(p, req)
	if !req.Bypassed() || req.Status != protocol.StatusOK || req.Value != want {
		t.Fatalf("GET %q: bypassed=%v status=%v value=%v, want a bypass hit with %v",
			key, req.Bypassed(), req.Status, req.Value, want)
	}
	return c.Counters.Val(metrics.CBypassReads) - before
}

// A quiescent small-value GET is exactly one READ: on first touch, on
// repeat, and immediately after a SET of the same key — there is no client
// state for a write to leave stale.
func TestBypassInlineHitIsOneRead(t *testing.T) {
	r := newBypassRig()
	c := r.client
	keys := []string{"small:0", "small:1", "small:2", "small:3"}
	sim.Drive(t, r.env, "driver", func(p *sim.Proc) {
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
		st := c.Counters
		hits, reads, fast := st.Val(metrics.CBypassHits), st.Val(metrics.CBypassReads), st.Val(metrics.CBypassFastPath)
		if hits != gets || reads != hits || fast != hits {
			t.Errorf("hits=%d reads=%d one-READ hits=%d over %d GETs", hits, reads, fast, gets)
		}
		if st.Val(metrics.CBypassFallbacks) != 0 || st.Val(metrics.CBypassReprobes) != 0 {
			t.Errorf("quiescent hits fell back %d times, re-probed %d times", st.Val(metrics.CBypassFallbacks), st.Val(metrics.CBypassReprobes))
		}
		if n := len(c.conns[0].locs); n != 0 {
			t.Errorf("inline hits left %d cached locations behind", n)
		}
	})
}

// Keys that hash to one bucket of the default geometry share it: two of them
// each resolve in one READ of the bucket with no fallback, and a third
// spills to its second-choice bucket, where it hits in two READs (home, then
// alternate). A fourth whose home and alternate are both full displaces the
// home's last way, and resolves in one READ; the displaced key's GET falls
// back to RPC once and still answers.
func TestBypassCollidingKeysShareABucket(t *testing.T) {
	const buckets = 1 << 15 // NewDirectory's default
	home := func(key string) int { return int(protocol.KeyDigest(key) % buckets) }
	alt := func(key string) int { return protocol.AltBucket(home(key), protocol.KeyDigest(key), buckets) }
	// keyWhere returns the first key of the form prefix:i that pred accepts.
	keyWhere := func(prefix string, pred func(string) bool) string {
		for i := 0; ; i++ {
			if key := fmt.Sprintf("%s:%d", prefix, i); pred(key) {
				return key
			}
		}
	}
	h := home("collide:0")
	keys := []string{"collide:0"}
	for len(keys) < 4 {
		keys = append(keys, keyWhere(fmt.Sprintf("collide%d", len(keys)), func(k string) bool {
			return home(k) == h && (len(keys) < 3 || alt(k) != alt(keys[2]))
		}))
	}
	// Two keys homed at the fourth key's alternate fill it.
	fill := []string{
		keyWhere("fillA", func(k string) bool { return home(k) == alt(keys[3]) }),
		keyWhere("fillB", func(k string) bool { return home(k) == alt(keys[3]) }),
	}
	r := newBypassRig()
	c := r.client
	sim.Drive(t, r.env, "driver", func(p *sim.Proc) {
		for i, key := range keys[:2] {
			c.Set(p, key, protocol.DirInlineMax, i, 0, 0)
		}
		for pass := 0; pass < 2; pass++ {
			for i, key := range keys[:2] {
				if n := bypassGet(t, p, c, key, i); n != 1 {
					t.Errorf("pass %d GET %q cost %d READs", pass, key, n)
				}
			}
		}

		c.Set(p, keys[2], protocol.DirInlineMax, 2, 0, 0)
		for i, key := range keys[:2] {
			if n := bypassGet(t, p, c, key, i); n != 1 {
				t.Errorf("GET of %q after a third key collided cost %d READs", key, n)
			}
		}
		if n := bypassGet(t, p, c, keys[2], 2); n != 2 {
			t.Errorf("GET of the spilled key cost %d READs, want home + alternate", n)
		}
		if n := c.Counters.Val(metrics.CBypassFallbacks); n != 0 {
			t.Errorf("three keys sharing a home fell back %d times", n)
		}

		for i, key := range fill {
			c.Set(p, key, 64, "fill", 0, 0)
			if n := bypassGet(t, p, c, key, "fill"); n != 1 {
				t.Errorf("GET of filler %d cost %d READs", i, n)
			}
		}
		c.Set(p, keys[3], protocol.DirInlineMax, 3, 0, 0)
		if n := bypassGet(t, p, c, keys[3], 3); n != 1 {
			t.Errorf("GET of the displacing key cost %d READs", n)
		}
		if n := bypassGet(t, p, c, keys[0], 0); n != 1 {
			t.Errorf("GET of the first way's key after a displacement cost %d READs", n)
		}
		req, err := c.Issue(p, Op{Code: protocol.OpGet, Key: keys[1]})
		if err != nil {
			t.Fatal(err)
		}
		c.Wait(p, req)
		if req.Bypassed() || req.Status != protocol.StatusOK || req.Value != 1 {
			t.Errorf("GET of the displaced key: bypassed=%v status=%v value=%v, want an RPC answer of 1",
				req.Bypassed(), req.Status, req.Value)
		}
		if n := c.Counters.Val(metrics.CBypassFallbacks); n != 1 {
			t.Errorf("fallbacks = %d, want the displaced key's one", n)
		}
	})
}

// The server's heat sketch learns of one-sided GETs from the hot-set
// refresh, not from GETs diverted to RPC: 64·k GETs on a warm client all
// resolve one-sided, send k refreshes and no RPC GET, and each refresh
// carries the GET that ticked it, which the server counts exactly once —
// and no other GET is counted at all.
func TestBypassHeatRidesTheRefresh(t *testing.T) {
	const k = 4
	r := newBypassRig()
	c, st := r.client, r.servers[0].Store()
	keys := make([]string, hotSampleEvery*k)
	sim.Drive(t, r.env, "driver", func(p *sim.Proc) {
		for i := range keys {
			keys[i] = fmt.Sprintf("heat:%d", i)
			c.Set(p, keys[i], 64, i, 0, 0)
		}
		c.Get(p, keys[0]) // bootstraps the directory
		c.hotGets = 0
		getOps, refreshes, samples := st.GetOps, c.Counters.Val(metrics.CHotRefreshes), c.Counters.Val(metrics.CHotSamples)
		for i, key := range keys {
			req, err := c.Issue(p, Op{Code: protocol.OpGet, Key: key})
			if err != nil {
				t.Fatal(err)
			}
			c.Wait(p, req)
			if !req.Bypassed() || req.Value != i {
				t.Fatalf("GET %q: bypassed=%v value=%v", key, req.Bypassed(), req.Value)
			}
		}
		p.Sleep(dirQueryTimeout) // the last refresh lands
		if n := st.GetOps - getOps; n != 0 {
			t.Errorf("%d GETs reached the server", n)
		}
		if n, m := c.Counters.Val(metrics.CHotRefreshes)-refreshes, c.Counters.Val(metrics.CHotSamples)-samples; n != k || m != k {
			t.Errorf("%d refreshes carrying %d samples, want %d of each", n, m, k)
		}
		for i, key := range keys {
			want := int64(0)
			if (i+1)%hotSampleEvery == 0 {
				want = 1
			}
			if got := st.Heat(key); got != want {
				t.Errorf("GET %d (%q) counted %d times in the sketch, want %d", i+1, key, got, want)
			}
		}
	})
}

// An out-of-line value costs two READs once (slot, then segment) and one
// READ from the cached offset afterwards; a SET supersedes the cached
// segment, which the next GET discovers and replaces.
func TestBypassOutOfLineRepeatHitsUseCachedOffset(t *testing.T) {
	r := newBypassRig()
	c := r.client
	const key = "large"
	sim.Drive(t, r.env, "driver", func(p *sim.Proc) {
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
		if n := c.Counters.Val(metrics.CBypassFastPath); n != 3 {
			t.Errorf("one-READ hits = %d, want the 3 repeats", n)
		}
		c.Set(p, key, 8<<10, "v2", 0, 0)
		if n := bypassGet(t, p, c, key, "v2"); n != 3 {
			t.Errorf("GET after SET cost %d READs, want dead offset + slot + segment", n)
		}
		if n := bypassGet(t, p, c, key, "v2"); n != 1 {
			t.Errorf("GET from the refreshed offset cost %d READs", n)
		}
	})
}

// A value crossing DirInlineMax in both directions (512 B → 8 KB → 512 B):
// every GET returns the committed value, the grown value is not served from
// stale inline bytes, and the shrunk one leaves no live cached offset.
func TestBypassValueCrossingInlineMax(t *testing.T) {
	r := newBypassRig()
	c := r.client
	const key = "resized"
	sim.Drive(t, r.env, "driver", func(p *sim.Proc) {
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
}

// The directory bootstrap is a key-less control op the server answers only as
// a bare request. A bypass client that resolves its first GETs inside an
// explicit batch window must still bootstrap once, on its own doorbell: the
// query is never parked in the window nor put into the window's frame,
// where nothing would answer it (the GET behind it would fall back to RPC and
// the next one bootstrap again).
func TestBypassBootstrapNeverRidesAFrame(t *testing.T) {
	r := newBypassRig()
	c := r.client
	sim.Drive(t, r.env, "driver", func(p *sim.Proc) {
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
		st := c.Counters
		if st.Val(metrics.CBypassBootstraps) != 1 || st.Val(metrics.CBypassFallbacks) != 0 {
			t.Errorf("bootstraps=%d fallbacks=%d with a batch window open, want 1 and 0 (as without one)",
				st.Val(metrics.CBypassBootstraps), st.Val(metrics.CBypassFallbacks))
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
}

// lateBuckets delays the server's bucket READ responses, once armed, by
// delays in turn, and notes when each was sent.
type lateBuckets struct {
	delays []sim.Time
	sent   []sim.Time
}

func (l *lateBuckets) Transmit(src, dst string, size int, now sim.Time) simnet.Verdict {
	if !strings.HasPrefix(src, "server") || size != protocol.DirBucketBytes || len(l.sent) == len(l.delays) {
		return simnet.Verdict{}
	}
	l.sent = append(l.sent, now)
	return simnet.Verdict{ExtraDelay: l.delays[len(l.sent)-1]}
}

// TestReadOutlivesItsResolution lets a bypass READ outlive the resolution
// record that posted it. GET a's bucket READ is answered past the resolver's
// patience: the resolver gives up on it, a falls back to RPC, and the record
// goes back on the client's free list. GET b of a key in another bucket takes
// that record and posts its own READ, and a's completion lands while b waits
// on it. It must wake nobody — b resolves one-sided, from its own bucket, once
// its own READ is back — and the bucket it carries must go back to the
// server's directory, which the census checks.
func TestReadOutlivesItsResolution(t *testing.T) {
	r := newBypassRig()
	c := r.client
	late := &lateBuckets{delays: []sim.Time{bypassReadTimeout + 50*sim.Microsecond, 50 * sim.Microsecond}}
	get := func(p *sim.Proc, key string) *Req {
		req, _ := c.Issue(p, Op{Code: protocol.OpGet, Key: key})
		c.Wait(p, req)
		if req.Status != protocol.StatusOK || req.Value != "v"+key {
			t.Fatalf("GET %s: %v %v, want OK v%s", key, req.Status, req.Value, key)
		}
		return req
	}
	var b *Req
	sim.Drive(t, r.env, "driver", func(p *sim.Proc) {
		keys := []string{"k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7"}
		for _, k := range keys {
			c.Set(p, k, 64, "v"+k, 0, 0)
		}
		p.Sleep(sim.Millisecond) // every directory publish has landed
		// The bootstrap, and the one resolution record the test makes.
		c.Release(get(p, keys[0]))
		bucket := func(k string) uint64 { return protocol.KeyDigest(k) % uint64(c.conns[0].dir.Buckets) }
		a, bKey := keys[0], ""
		for _, k := range keys[1:] {
			if bucket(k) != bucket(a) {
				bKey = k
				break
			}
		}
		if bKey == "" {
			t.Fatal("every key shares a's bucket")
		}

		r.fabric.SetFaults(late)
		start := p.Now()
		ra := get(p, a)
		if ra.Bypassed() || ra.Attempts != 2 || c.Counters.Val(metrics.CBypassFallbacks) != 1 {
			t.Fatalf("GET a: bypassed %v after %d attempts, %d fallbacks; want its READ given up on and an RPC answer",
				ra.Bypassed(), ra.Attempts, c.Counters.Val(metrics.CBypassFallbacks))
		}
		c.Release(ra)
		p.Sleep(start + bypassReadTimeout + 25*sim.Microsecond - p.Now())
		b = get(p, bKey)
	})
	if len(late.sent) != 2 {
		t.Fatalf("%d bucket READ responses delayed, want a's and b's", len(late.sent))
	}
	aLands, bLands := late.sent[0]+late.delays[0], late.sent[1]+late.delays[1]
	if aLands <= b.IssuedAt || aLands >= bLands {
		t.Fatalf("a's READ lands at %v, outside b's wait (%v to %v)", aLands, b.IssuedAt, bLands)
	}
	if !b.Bypassed() || b.CompletedAt < bLands || c.Counters.Val(metrics.CBypassFallbacks) != 1 {
		t.Errorf("GET b: bypassed %v, done at %v (its READ lands at %v), %d fallbacks; want a one-sided hit from its own READ",
			b.Bypassed(), b.CompletedAt, bLands, c.Counters.Val(metrics.CBypassFallbacks))
	}
	c.Release(b)
	if made := c.resolutions.Made; made != 1 {
		t.Errorf("%d resolution records made, want the one a and b shared", made)
	}
	if n := len(c.conns[0].readWaits); n != 0 {
		t.Errorf("%d READ waits left", n)
	}
	if err := r.census().Err(); err != nil {
		t.Error(err)
	}
}
