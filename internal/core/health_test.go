package core

import (
	"hybridkv/internal/metrics"
	"testing"

	"hybridkv/internal/protocol"
	"hybridkv/internal/server"
	"hybridkv/internal/sim"
)

// TestHalfOpenSlowProbeRecloses: the half-open probe decision is about
// liveness, not latency — a probe that is served slowly (the server limps
// through a worker-stall window) but successfully must re-close the
// breaker, not re-open it. Latency verdicts belong to the health tracker's
// brown-out state, which deprioritizes without ever blocking.
func TestHalfOpenSlowProbeRecloses(t *testing.T) {
	const stall = 500 * sim.Microsecond
	r := newTestRig(rigOpts{
		transport: RDMA, pipeline: server.Async,
		clientCfg: func(cc *Config) { cc.Breaker = 2 },
	})
	c, srv := r.client, r.servers[0]
	var probe *Req
	var probeLat sim.Time
	sim.Drive(t, r.env, "bench", func(p *sim.Proc) {
		if st := c.Set(p, "k", 1024, "v", 0, 0); st != protocol.StatusStored {
			t.Errorf("seed set: %v", st)
		}
		srv.Crash()
		for i := 0; i < 2; i++ {
			req, _ := c.Issue(p, Op{Code: protocol.OpGet, Key: "k"},
				WithDeadline(100*sim.Microsecond))
			c.Wait(p, req)
		}
		if n := c.Counters.Val(metrics.CBreakerOpen); n != 1 {
			t.Errorf("breaker-open = %d after two timeouts, want 1", n)
		}
		srv.Restart()
		// The restarted server limps: every storage dequeue stalls, so the
		// half-open probe is slow — but it answers.
		srv.AddWorkerStall(p.Now(), p.Now()+10*sim.Millisecond, stall)
		p.Sleep(breakerCooldown + 10*sim.Microsecond)
		t0 := p.Now()
		var err error
		probe, err = c.Issue(p, Op{Code: protocol.OpGet, Key: "k"},
			WithDeadline(5*sim.Millisecond))
		if err != nil {
			t.Errorf("probe issue: %v", err)
			return
		}
		c.Wait(p, probe)
		probeLat = p.Now() - t0
	})

	if probe == nil || probe.Err() != nil {
		t.Fatalf("slow probe failed: %v", probe.Err())
	}
	if probeLat < stall {
		t.Fatalf("probe latency %v — the stall window did not bite; the test proves nothing", probeLat)
	}
	if n := c.Counters.Val(metrics.CBreakerClose); n != 1 {
		t.Errorf("breaker-close = %d, want 1 (slow-but-successful probe must re-close)", n)
	}
	if !c.conns[0].routable() {
		t.Error("connection still blocked after a successful probe")
	}
}

// TestBrownoutNeverBlocksLastLiveReplica: brown-out is strictly weaker
// than the breaker — when every member of a replica set is browned (or the
// client is unreplicated), a GET must route exactly where a write would
// rather than leaving the key unroutable.
func TestBrownoutNeverBlocksLastLiveReplica(t *testing.T) {
	r := newTestRig(rigOpts{
		transport: RDMA, pipeline: server.Async, servers: 2, replicas: 2,
		clientCfg: func(cc *Config) { cc.Health = true },
	})
	c := r.client
	for _, cn := range c.conns {
		cn.health.browned[hcGet] = true
	}
	want := c.route(protocol.KeyOf("k"), routeWrite, nil)
	if got := c.route(protocol.KeyOf("k"), routeGet, nil); got != want {
		t.Errorf("fully-browned set: GET routed to server%d, want the write route's server%d", got.serverID, want.serverID)
	}

	// Unreplicated client: the single home replica is always last-live.
	r1 := newTestRig(rigOpts{
		transport: RDMA, pipeline: server.Async,
		clientCfg: func(cc *Config) { cc.Health = true },
	})
	c1 := r1.client
	c1.conns[0].health.browned[hcGet] = true
	if got := c1.route(protocol.KeyOf("k"), routeGet, nil); got != c1.conns[0] {
		t.Error("unreplicated browned conn not returned as last-live")
	}
}

// TestBrownoutProbeTrickle: every healthProbeEvery'th GET that would be routed
// around a browned connection is sent to it anyway, so its sample stream —
// and therefore its recovery — stays observable.
func TestBrownoutProbeTrickle(t *testing.T) {
	r := newTestRig(rigOpts{
		transport: RDMA, pipeline: server.Async, servers: 2, replicas: 2,
		clientCfg: func(cc *Config) { cc.Health = true },
	})
	c := r.client
	home := c.route(protocol.KeyOf("k"), routeWrite, nil)
	home.health.browned[hcGet] = true

	probes, rerouted := 0, 0
	for i := 0; i < 2*healthProbeEvery; i++ {
		if c.route(protocol.KeyOf("k"), routeGet, nil) == home {
			probes++
		} else {
			rerouted++
		}
	}
	if probes != 2 || rerouted != 2*healthProbeEvery-2 {
		t.Errorf("probes=%d rerouted=%d over %d picks, want 2/%d", probes, rerouted, 2*healthProbeEvery, 2*healthProbeEvery-2)
	}
	if n := c.Counters.Val(metrics.CSlowRoutedGets); n != int64(rerouted) {
		t.Errorf("slow-routed-gets = %d, want %d", n, rerouted)
	}
}

// TestWriteClassBrownoutDoesNotRerouteGets: brown-out is per op class. A
// coordinator whose chain writes crawl (because its replication partner is
// the slow node) keeps a fast GET path; marking the whole connection
// degraded would worst-case brown both members of a set and pin reads onto
// the genuinely slow one.
func TestWriteClassBrownoutDoesNotRerouteGets(t *testing.T) {
	r := newTestRig(rigOpts{
		transport: RDMA, pipeline: server.Async, servers: 2, replicas: 2,
		clientCfg: func(cc *Config) { cc.Health = true },
	})
	c := r.client
	home := c.route(protocol.KeyOf("k"), routeWrite, nil)
	home.health.browned[hcWrite] = true
	if !home.readHealthy() {
		t.Error("write-class brown-out must not mark the read path unhealthy")
	}
	if got := c.route(protocol.KeyOf("k"), routeGet, nil); got != home {
		t.Errorf("GET rerouted to server%d on a write-class brown-out", got.serverID)
	}
	if n := c.Counters.Val(metrics.CSlowRoutedGets); n != 0 {
		t.Errorf("slow-routed-gets = %d, want 0", n)
	}
}

// TestBrownoutEnterExitHysteresis: a connection browns when its windowed
// tail exceeds degradedFactor times the best peer baseline and recovers
// only after dropping under recoverFactor — and both transitions are
// counted.
func TestBrownoutEnterExitHysteresis(t *testing.T) {
	r := newTestRig(rigOpts{
		transport: RDMA, pipeline: server.Async, servers: 2, replicas: 2,
		clientCfg: func(cc *Config) { cc.Health = true },
	})
	c := r.client
	fast, slow := c.conns[0], c.conns[1]
	for i := 0; i < healthWindow; i++ {
		c.noteServiceTime(fast, hcGet, 10*sim.Microsecond)
	}
	// Slow conn: a fast history, then a degraded tail.
	for i := 0; i < healthMinSamples; i++ {
		c.noteServiceTime(slow, hcGet, 10*sim.Microsecond)
	}
	for i := 0; i < healthWindow && !slow.health.browned[hcGet]; i++ {
		c.noteServiceTime(slow, hcGet, 200*sim.Microsecond)
	}
	if !slow.health.browned[hcGet] {
		t.Fatal("degraded tail never tripped the brown-out")
	}
	if n := c.Counters.Val(metrics.CBrownoutsEntered); n != 1 {
		t.Errorf("brownouts-entered = %d, want 1", n)
	}

	// Recovery: fast samples flush the window under recoverFactor.
	for i := 0; i < 2*healthWindow && slow.health.browned[hcGet]; i++ {
		c.noteServiceTime(slow, hcGet, 10*sim.Microsecond)
	}
	if slow.health.browned[hcGet] {
		t.Fatal("brown-out never recovered after the tail subsided")
	}
	if n := c.Counters.Val(metrics.CBrownoutsExited); n != 1 {
		t.Errorf("brownouts-exited = %d, want 1", n)
	}
}

// TestHedgeAfterAdaptsToBaseline: with health tracking live the hedge
// threshold tracks degradedFactor times the best GET baseline, clamped to
// [d/8, d]; disabled or unsampled trackers leave the caller's threshold
// untouched.
func TestHedgeAfterAdaptsToBaseline(t *testing.T) {
	r := newTestRig(rigOpts{
		transport: RDMA, pipeline: server.Async, servers: 2, replicas: 2,
		clientCfg: func(cc *Config) { cc.Health = true },
	})
	c := r.client
	if got := c.hedgeAfter(2 * sim.Millisecond); got != 2*sim.Millisecond {
		t.Errorf("unsampled tracker: hedgeAfter = %v, want the caller's 2ms", got)
	}
	for i := 0; i < 16; i++ {
		c.noteServiceTime(c.conns[0], hcGet, 10*sim.Microsecond)
	}
	// Baseline 10µs × degradedFactor 3 = 30µs, inside [d/8, d] for d=160µs.
	if got := c.hedgeAfter(160 * sim.Microsecond); got != 30*sim.Microsecond {
		t.Errorf("adaptive hedge = %v, want 30µs", got)
	}
	// Clamp low: d=2ms keeps the hedge at d/8 so a cold baseline cannot
	// hedge-storm.
	if got := c.hedgeAfter(2 * sim.Millisecond); got != 250*sim.Microsecond {
		t.Errorf("clamped hedge = %v, want 250µs (d/8)", got)
	}
	// Clamp high: a threshold already tighter than the baseline stands.
	if got := c.hedgeAfter(8 * sim.Microsecond); got != 8*sim.Microsecond {
		t.Errorf("tight hedge = %v, want the caller's 8µs", got)
	}

	// Health disabled: hedgeAfter is the identity.
	off := newTestRig(rigOpts{transport: RDMA, pipeline: server.Async, servers: 2}).client
	if got := off.hedgeAfter(999 * sim.Microsecond); got != 999*sim.Microsecond {
		t.Errorf("disabled tracker: hedgeAfter = %v, want identity", got)
	}
}

// TestBrownedHalfOpenBreakerIsNotStranded: routing a GET around a browned
// home whose breaker has just cooled down must not take the half-open
// probe slot — nothing is sent to home, so nothing would ever give the slot
// back, and every later attempt would be refused for the rest of the run.
// The slot belongs to the connection an attempt is actually sent on.
func TestBrownedHalfOpenBreakerIsNotStranded(t *testing.T) {
	r := newTestRig(rigOpts{
		transport: RDMA, pipeline: server.Async, servers: 2, replicas: 2,
		clientCfg: func(cc *Config) { cc.Breaker, cc.Health = 1, true },
	})
	c := r.client
	home := c.route(protocol.KeyOf("k"), routeWrite, nil)
	sim.Drive(t, r.env, "bench", func(p *sim.Proc) {
		home.health.browned[hcGet] = true
		home.noteFailure() // Breaker 1: open
		p.Sleep(breakerCooldown + 10*sim.Microsecond)

		if got := c.route(protocol.KeyOf("k"), routeGet, nil); got == home {
			t.Fatal("GET routed to the browned home; the test never went around it")
		}
		if home.brk.state != bkOpen || home.brk.probing {
			t.Errorf("routing around home moved its breaker: state %d, probing %v", home.brk.state, home.brk.probing)
		}

		p.Sleep(10 * sim.Millisecond)
		if got := c.route(protocol.KeyOf("k"), routeWrite, nil); got != home {
			t.Errorf("write routed to server%d: home's probe slot was stranded", got.serverID)
		}
		if home.brk.state != bkHalfOpen || !home.brk.probing {
			t.Errorf("the write sent to home is its probe: state %d, probing %v", home.brk.state, home.brk.probing)
		}
		if n := c.Counters.Val(metrics.CBreakerHalfOpen); n != 1 {
			t.Errorf("breaker-halfopen = %d, want 1", n)
		}
	})
}
