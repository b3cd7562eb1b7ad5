package core

import (
	"sort"

	"hybridkv/internal/metrics"
	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
)

// Latency-aware connection health: the gray-failure defense. Error-count
// breakers (breaker.go) catch servers that stop answering; they are blind
// to a server that keeps answering, slowly — a limping SSD, a degraded
// link, a stalled storage worker. This file tracks per-connection service
// time (EWMA plus a windowed quantile, split by op class and read path)
// and compares each connection against the fleet's fastest peer. A
// connection whose windowed tail exceeds degradedFactor times the best
// peer's EWMA enters BROWN-OUT: not open — requests sent to it still
// complete, writes it coordinates still route to it — but deprioritized.
// This file keeps the state; route (route.go) is its one reader: GETs —
// cold, hot fan-out, a bypass resolution falling back to RPC — pass over a
// browned replica while a healthy one exists, and hedge thresholds shrink
// toward the measured healthy baseline instead of waiting out a fixed
// fraction of the deadline.
//
// Two guards in route keep brown-out strictly weaker than the breaker:
//
//   - last-live: a browned connection is never blocked when it is the
//     only routable replica, so brown-out can never turn a slow fleet into
//     an unavailable one;
//   - probe trickle: every healthProbeEvery'th GET that would have been routed
//     around a browned connection is sent to it anyway, so service-time
//     samples keep flowing and recovery (recoverFactor hysteresis) is
//     observable even while the connection is deprioritized.
//
// Crash visibility is untouched: brown-out only reorders preferences among
// the candidates the breakers admit, so a browned server that then
// cold-crashes still trips its breaker and still gets failed over exactly
// as an un-tracked one would.
//
// Config.Health false disables everything: no state is allocated, no
// samples are taken, routing and virtual time are byte-identical to a
// client without health tracking.

const (
	// healthWindow is the per-class service-time window compared against
	// the fleet baseline, in samples.
	healthWindow = 32
	// healthMinSamples is how many samples a class needs — on the judged
	// connection and on at least one peer — before brown-out decisions are
	// made.
	healthMinSamples = 8
	// healthProbeEvery admits every Nth otherwise-rerouted GET to a browned
	// connection as a probe, keeping recovery observable; rare enough that
	// the probes stay under a measured window's p99 mass.
	healthProbeEvery = 64
	// healthAlpha is the EWMA smoothing factor of the per-class baseline
	// each connection publishes to its peers.
	healthAlpha = 0.125
	// healthQuantile is the windowed quantile judged against the baseline:
	// the window's p90.
	healthQuantile = 0.9
	// degradedFactor enters brown-out when the windowed quantile exceeds
	// this multiple of the best peer EWMA; recoverFactor exits it when the
	// quantile drops back under that one. The gap is the hysteresis band.
	degradedFactor = 3
	recoverFactor  = 1.5
)

// Op classes tracked separately: a slow SSD hurts writes long before
// memory-resident GETs notice, and one-sided bypass READs bypass the
// server CPU entirely — mixing them would blur every signal.
const (
	hcGet = iota
	hcWrite
	hcBypass
	hcClasses
)

// classOfOp maps an opcode to its health class. Control-plane ops
// (OpDirQuery and friends) are unclassified: their latencies are not
// representative of serving.
func classOfOp(op protocol.Opcode) (int, bool) {
	switch op {
	case protocol.OpGet:
		return hcGet, true
	case protocol.OpSet, protocol.OpAdd, protocol.OpReplace, protocol.OpAppend,
		protocol.OpPrepend, protocol.OpCAS, protocol.OpIncr, protocol.OpDecr,
		protocol.OpDelete, protocol.OpTouch:
		return hcWrite, true
	}
	return 0, false
}

// classHealth is one (connection, op class) service-time track.
type classHealth struct {
	ewma float64 // smoothed service time, ns — the baseline peers see
	win  []float64
	pos  int
	n    int64 // lifetime samples
}

func (ch *classHealth) add(v float64) {
	if ch.ewma == 0 {
		ch.ewma = v
	} else {
		ch.ewma += healthAlpha * (v - ch.ewma)
	}
	if len(ch.win) < healthWindow {
		ch.win = append(ch.win, v)
	} else {
		ch.win[ch.pos] = v
		ch.pos = (ch.pos + 1) % healthWindow
	}
	ch.n++
}

// quantile returns the windowed quantile (nearest-rank on the sorted
// window copy; the window is small by construction).
func (ch *classHealth) quantile(q float64) float64 {
	if len(ch.win) == 0 {
		return 0
	}
	tmp := append([]float64(nil), ch.win...)
	sort.Float64s(tmp)
	return tmp[int(q*float64(len(tmp)-1))]
}

// connHealth is one connection's health state. Allocated only when
// Config.Health; a nil connHealth means "healthy, untracked".
//
// Brown-out is PER CLASS, not per connection: a coordinator whose chain
// writes crawl because its replication partner is the limping node has a
// perfectly fast GET path, and marking the whole connection degraded
// would misattribute the blame — worst case both members of a replica set
// look browned and the last-live guard pins reads onto the genuinely slow
// one. Read routing therefore consults only the read classes
// (readHealthy); a write-class brown-out is recorded and counted but
// reorders nothing, because chain writes cannot be routed around without
// giving up the replication guarantee.
type connHealth struct {
	classes [hcClasses]classHealth
	// browned marks the per-class brown-out state; recovery is judged on
	// the same class that tripped.
	browned [hcClasses]bool
	// probeSeq paces the probe trickle through a brown-out.
	probeSeq uint64
}

// admitProbe reports whether this otherwise-rerouted GET should go to the
// browned connection anyway, keeping its sample stream alive.
func (h *connHealth) admitProbe() bool {
	h.probeSeq++
	return h.probeSeq%healthProbeEvery == 0
}

// readHealthy reports whether cn's RPC GET path is routable at full
// preference: untracked connections (health disabled) are always healthy.
func (cn *conn) readHealthy() bool {
	return cn.health == nil || !cn.health.browned[hcGet]
}

// noteServiceTime records one completed operation's service time on cn and
// re-evaluates its brown-out state. d is the full attempt latency as the
// client observed it (issue-to-response for RPC, resolve time for bypass).
func (c *Client) noteServiceTime(cn *conn, class int, d sim.Time) {
	h := cn.health
	if h == nil || d < 0 {
		return
	}
	c.Counters.Inc(metrics.CHealthSamples)
	ch := &h.classes[class]
	ch.add(float64(d))
	if !h.browned[class] {
		if ch.n < healthMinSamples {
			return
		}
		base := c.fleetBaseline(class, cn)
		if base > 0 && ch.quantile(healthQuantile) > degradedFactor*base {
			h.browned[class] = true
			c.Counters.Inc(metrics.CBrownoutsEntered)
		}
		return
	}
	base := c.fleetBaseline(class, cn)
	if base > 0 && ch.quantile(healthQuantile) < recoverFactor*base {
		h.browned[class] = false
		c.Counters.Inc(metrics.CBrownoutsExited)
	}
}

// fleetBaseline is the best (lowest) peer EWMA for a class across live
// tracked connections, excluding the one under judgment. Zero means no
// peer has enough samples yet — no verdict is possible, which fails safe
// (no brown-out without evidence of a faster alternative).
func (c *Client) fleetBaseline(class int, exclude *conn) float64 {
	best := 0.0
	for _, cn := range c.conns {
		if cn == exclude || cn.retired || cn.health == nil {
			continue
		}
		ch := &cn.health.classes[class]
		if ch.n < healthMinSamples || ch.ewma <= 0 {
			continue
		}
		if best == 0 || ch.ewma < best {
			best = ch.ewma
		}
	}
	return best
}

// hedgeAfter adapts a GET's hedge threshold to the measured healthy
// baseline: with health tracking live, the hedge fires at degradedFactor
// times the fleet's best GET EWMA — "longer than a healthy replica would
// plausibly take" — instead of the caller's fixed delay, clamped to
// [d/8, d] so a cold tracker or a noisy baseline can neither hedge-storm
// nor defer past the configured threshold.
func (c *Client) hedgeAfter(d sim.Time) sim.Time {
	if !c.cfg.Health || d <= 0 {
		return d
	}
	base := c.fleetBaseline(hcGet, nil)
	if base <= 0 {
		return d
	}
	ad := sim.Time(base * degradedFactor)
	if lo := d / 8; ad < lo {
		ad = lo
	}
	if ad > d {
		ad = d
	}
	return ad
}
