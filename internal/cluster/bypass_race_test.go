package cluster

import (
	"errors"
	"fmt"
	"hybridkv/internal/metrics"
	"testing"

	"hybridkv/internal/core"
	"hybridkv/internal/history"
	"hybridkv/internal/protocol"
	"hybridkv/internal/server"
	"hybridkv/internal/sim"
)

// Functional coverage of the server-bypass GET path: correct values on hits,
// fast-path engagement on re-reads, RPC forcing, fallbacks for misses, and
// hedge suppression for bypass-resolved GETs.
func TestBypassServesReads(t *testing.T) {
	cl := New(Config{
		Design: HRDMAOptNonBI, Profile: ClusterA(),
		Servers: 2, ServerMem: 64 << 20,
		Bypass: true,
	})
	const n = 100
	keyOf := func(i int) string { return fmt.Sprintf("obj:%010d", i) }
	cl.Preload(n, 8<<10, keyOf)

	c := cl.Clients[0]
	bad := 0
	sim.Drive(t, cl.Env, "reader", func(p *sim.Proc) {
		// Two passes: the first resolves via directory probes, the second
		// re-reads through the per-key location cache (single-READ fast
		// path).
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < n; i++ {
				v, _, st := c.Get(p, keyOf(i))
				if st != protocol.StatusOK || v != fmt.Sprintf("v%d", i) {
					bad++
				}
			}
		}
		// Forced RPC must still work and must not touch the bypass path.
		before := c.Counters.Val(metrics.CBypassHits)
		req, err := c.Issue(p, core.Op{Code: protocol.OpGet, Key: keyOf(0)},
			core.WithReadPath(core.ReadRPC))
		if err != nil {
			t.Errorf("rpc-forced issue: %v", err)
			return
		}
		c.Wait(p, req)
		if req.Bypassed() || req.Status != protocol.StatusOK {
			t.Errorf("rpc-forced GET bypassed=%v status=%v", req.Bypassed(), req.Status)
		}
		if c.Counters.Val(metrics.CBypassHits) != before {
			t.Errorf("rpc-forced GET incremented bypass hits")
		}
		// A miss probes an empty slot and falls back to an RPC miss.
		if _, _, st := c.Get(p, "no-such-key"); st != protocol.StatusNotFound {
			t.Errorf("miss status = %v", st)
		}
		// A hedged GET that resolves via bypass suppresses its hedge.
		hreq, err := c.Issue(p, core.Op{Code: protocol.OpGet, Key: keyOf(1)},
			core.WithHedge(sim.Millisecond))
		if err != nil {
			t.Errorf("hedged issue: %v", err)
			return
		}
		c.Wait(p, hreq)
		p.Sleep(2 * sim.Millisecond) // let the hedge timer observe completion
		if !hreq.Bypassed() {
			t.Errorf("hedged GET did not resolve via bypass")
		}
	})

	if bad != 0 {
		t.Fatalf("%d of %d bypass reads returned wrong value/status", bad, 2*n)
	}
	st := c.Counters
	hits, boots := st.Val(metrics.CBypassHits), st.Val(metrics.CBypassBootstraps)
	if hits == 0 || boots == 0 {
		t.Fatalf("bypass never engaged: %d hits, %d bootstraps", hits, boots)
	}
	if st.Val(metrics.CBypassFastPath) == 0 {
		t.Fatalf("location-cache fast path never engaged over %d hits", hits)
	}
	if st.Val(metrics.CBypassFallbacks) == 0 {
		t.Fatalf("the miss should have fallen back: %d hits, no fallback", hits)
	}
	if st.Val(metrics.CHedgesSuppressed) == 0 || st.Val(metrics.CHedges) != 0 {
		t.Fatalf("hedge not suppressed for bypass-resolved GET: hedges=%d suppressed=%d",
			st.Val(metrics.CHedges), st.Val(metrics.CHedgesSuppressed))
	}
}

// A bypass-disabled cluster must never resolve via bypass.
func TestBypassDisabledByDefault(t *testing.T) {
	cl := New(Config{Design: HRDMAOptNonBI, Profile: ClusterA(), ServerMem: 64 << 20})
	c := cl.Clients[0]
	sim.Drive(t, cl.Env, "reader", func(p *sim.Proc) {
		c.Set(p, "k", 1024, "v", 0, 0)
		req, _ := c.Issue(p, core.Op{Code: protocol.OpGet, Key: "k"})
		c.Wait(p, req)
		if req.Bypassed() || req.Status != protocol.StatusOK {
			t.Errorf("bypassed=%v status=%v on a bypass-disabled client", req.Bypassed(), req.Status)
		}
	})
	if hits, boots := c.Counters.Val(metrics.CBypassHits), c.Counters.Val(metrics.CBypassBootstraps); hits != 0 || boots != 0 {
		t.Fatalf("bypass machinery ran while disabled: %d hits, %d bootstraps", hits, boots)
	}
}

// The bypass safety soak: bypass readers race CAS-chained writers,
// slab eviction (RAM overcommitted 3x), a warm crash, and a cold restart.
// The seqlock/digest validation must turn every race into a fallback, never
// a torn or stale read — checked offline by the history oracle.
func TestBypassRaceChaos(t *testing.T) {
	const (
		writers   = 6
		keysPerW  = 4
		rounds    = 60
		readers   = 6
		readRound = 120
		valueSize = 32 << 10
	)
	cl := New(Config{
		Design: HRDMAOptNonBI, Profile: ClusterA(),
		ServerMem:    4 << 20, // ~8 MB of filler + working set: constant eviction
		SlabPageSize: 256 << 10,
		Bypass:       true,
	})
	keyOf := func(i int) string { return fmt.Sprintf("fill:%06d", i) }
	cl.Preload(256, valueSize, keyOf) // 8 MB against a 4 MB budget

	c := cl.Clients[0]
	rp := core.RetryPolicy{
		MaxAttempts:    8,
		AttemptTimeout: 200 * sim.Microsecond,
		Backoff:        20 * sim.Microsecond,
		MaxBackoff:     sim.Millisecond,
		Jitter:         -1,
		Seed:           42,
	}
	guard := []core.IssueOption{core.WithDeadline(50 * sim.Millisecond), core.WithRetry(rp)}

	log := &history.Log{}
	expected := 0

	// Writers: per-key CAS chains with the sequence number as the value, so
	// a bypass read that returns a torn or resurrected snapshot is caught as
	// future-read / stale-read.
	var ds []sim.Driver
	for w := 0; w < writers; w++ {
		w := w
		expected += rounds * 2
		ds = append(ds, sim.Driver{Name: fmt.Sprintf("bypass-writer%d", w), Fn: func(p *sim.Proc) {
			next := make([]uint64, keysPerW)
			for r := 0; r < rounds; r++ {
				ki := r % keysPerW
				key := fmt.Sprintf("race:w%d:k%d", w, ki)
				t0 := p.Now()
				rreq, err := c.Issue(p, core.Op{Code: protocol.OpGet, Key: key}, guard...)
				if err != nil {
					panic("bypass chaos read: " + err.Error())
				}
				c.Wait(p, rreq)
				rerr := rreq.Err()
				hit := rerr == nil
				var seq uint64
				if hit {
					seq, _ = rreq.Value.(uint64)
				}
				log.Record(history.Entry{
					Worker: w, Kind: history.Read, Key: key, Seq: seq,
					Hit: hit, OK: hit || errors.Is(rerr, core.ErrNotFound),
					IssuedAt: t0, CompletedAt: p.Now(),
				})

				next[ki]++
				seqW := next[ki]
				op := core.Op{Code: protocol.OpAdd, Key: key, ValueSize: valueSize, Value: seqW}
				if hit {
					// The CAS token came from the bypass snapshot: a stale
					// one is rejected server-side, re-syncing next round.
					op = core.Op{Code: protocol.OpCAS, Key: key, ValueSize: valueSize, Value: seqW, CAS: rreq.CAS}
				}
				t1 := p.Now()
				wreq, err := c.Issue(p, op, guard...)
				if err != nil {
					panic("bypass chaos write: " + err.Error())
				}
				c.Wait(p, wreq)
				werr := wreq.Err()
				log.Record(history.Entry{
					Worker: w, Kind: history.Write, Key: key, Seq: seqW,
					OK:       werr == nil,
					Acked:    wreq.Acked() && (werr == nil || errors.Is(werr, core.ErrDeadlineExceeded)),
					IssuedAt: t1, CompletedAt: p.Now(),
				})
				p.Sleep(60 * sim.Microsecond)
			}
		}})
	}

	// Readers: bypass GETs over both the contended CAS keys and the
	// eviction-churned filler, so probes race SET windows, evictions, SSD
	// residence, and the crash quiesce.
	for rd := 0; rd < readers; rd++ {
		rd := rd
		expected += readRound
		ds = append(ds, sim.Driver{Name: fmt.Sprintf("bypass-reader%d", rd), Fn: func(p *sim.Proc) {
			for r := 0; r < readRound; r++ {
				var key string
				if r%2 == 0 {
					key = fmt.Sprintf("race:w%d:k%d", (rd+r)%writers, r%keysPerW)
				} else {
					key = keyOf((rd*readRound + r) % 256)
				}
				t0 := p.Now()
				req, err := c.Issue(p, core.Op{Code: protocol.OpGet, Key: key}, guard...)
				if err != nil {
					panic("bypass chaos reader: " + err.Error())
				}
				c.Wait(p, req)
				rerr := req.Err()
				hit := rerr == nil
				var seq uint64
				if hit {
					seq, _ = req.Value.(uint64)
				}
				e := history.Entry{
					Worker: writers + rd, Kind: history.Read, Key: key, Seq: seq,
					Hit: hit, OK: hit || errors.Is(rerr, core.ErrNotFound),
					IssuedAt: t0, CompletedAt: p.Now(),
				}
				if key[0] == 'f' {
					// Filler values are ints, not CAS-chain seqs; exclude
					// them from the seq oracle by recording seq 0.
					e.Seq = 0
				}
				log.Record(e)
				p.Sleep(25 * sim.Microsecond)
			}
		}})
	}

	// Crash schedule: a warm crash mid-run (quiesced directory, READs must
	// observe emptiness), then a cold restart (recovery gate + republish).
	srv := cl.Servers[0]
	sim.DriveUntil(t, cl.Env, -1, append(ds, sim.Driver{Name: "bypass-crasher", Fn: func(p *sim.Proc) {
		for i, how := range []server.OutageKind{server.WarmCrash, server.ColdCrash} {
			p.Sleep(sim.Time(2+i) * sim.Millisecond) // 2 ms in, then 3 ms after the first is back
			from := p.Now()
			srv.Outage(p, how, 300*sim.Microsecond)
			log.CrashWindow(from, p.Now())
		}
	}})...)

	log.Expected = expected
	for _, v := range log.Check() {
		t.Errorf("violation: %v", v)
	}
	st := c.Counters
	if st.Val(metrics.CBypassHits) == 0 {
		t.Fatalf("soak never resolved a GET via bypass: %d fallbacks", st.Val(metrics.CBypassFallbacks))
	}
	if st.Val(metrics.CBypassFallbacks) == 0 {
		t.Fatalf("soak never exercised the fallback path: %d hits", st.Val(metrics.CBypassHits))
	}
	t.Logf("bypass soak: hits=%d fastpath=%d fallbacks=%d bootstraps=%d retries=%d",
		st.Val(metrics.CBypassHits), st.Val(metrics.CBypassFastPath), st.Val(metrics.CBypassFallbacks),
		st.Val(metrics.CBypassBootstraps), st.Val(metrics.CRetries))
}
