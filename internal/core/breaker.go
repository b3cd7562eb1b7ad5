package core

import (
	"hybridkv/internal/metrics"
	"hybridkv/internal/sim"
)

// Per-server circuit breaker. A connection whose server answers consecutive
// busy rejections or attempt timeouts trips open: route (route.go) then
// sends its keys to the next candidate instead of feeding the saturated
// server more load. After a cooldown the breaker half-opens and admits a
// single probe request; a real response re-closes it, another failure
// re-opens it, and a probe that ends with neither — canceled, never sent,
// outrun by a hedge — hands its slot to the next request (settle, issue.go,
// is where every attempt reports). State transitions are counted in
// Client.Faults
// (metrics.CBreakerOpen, CBreakerHalfOpen, CBreakerClose) and reroutes in
// CBreakerReroutes.

// BreakerConfig configures the per-connection circuit breaker. The zero
// value disables it entirely: no breaker is attached and routing is
// byte-identical to a breaker-less client.
type BreakerConfig struct {
	// Threshold opens the breaker after this many consecutive busy
	// rejections or attempt timeouts from one server (0 disables).
	Threshold int
	// Cooldown is how long an open breaker deflects traffic before
	// half-opening to admit one probe (default 1 ms).
	Cooldown sim.Time
}

type breakerState int

const (
	bkClosed breakerState = iota
	bkOpen
	bkHalfOpen
)

type breaker struct {
	c        *Client
	cfg      BreakerConfig
	state    breakerState
	fails    int // consecutive failures while closed
	openedAt sim.Time
	probing  bool // half-open: the single probe is in flight
	// probe is the attempt the slot was taken for, from the moment it exists
	// (allow runs when the attempt is routed, attach when it is made): the
	// one attempt that gives the slot back if it ends without a verdict.
	probe *attempt
}

func newBreaker(c *Client, cfg BreakerConfig) *breaker {
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = sim.Millisecond
	}
	return &breaker{c: c, cfg: cfg}
}

// admits reports whether new traffic may be sent to this server: the
// breaker is closed, open past its cooldown, or half-open with its probe
// slot free. It changes nothing, so route may ask it of every candidate.
func (b *breaker) admits() bool {
	switch b.state {
	case bkClosed:
		return true
	case bkOpen:
		return b.c.env.Now()-b.openedAt >= b.cfg.Cooldown
	default: // half-open: exactly one probe at a time
		return !b.probing
	}
}

// allow admits one request the caller is about to send: an open breaker
// past its cooldown moves to half-open, and the half-open breaker's single
// probe slot is taken until that request's attempt is settled. Call it only
// for the connection actually chosen — a slot taken for a request that is
// then sent elsewhere is never given back.
func (b *breaker) allow() {
	switch b.state {
	case bkOpen:
		if !b.admits() {
			return
		}
		b.state = bkHalfOpen
		b.probing = true
		b.c.Faults.Inc(metrics.CBreakerHalfOpen)
	case bkHalfOpen:
		b.probing = true
	}
}

// onSuccess records a real response: the server is serving, so any
// half-open probe (or lingering failure streak) resets to closed.
func (b *breaker) onSuccess() {
	if b.state != bkClosed {
		b.c.Faults.Inc(metrics.CBreakerClose)
	}
	b.state = bkClosed
	b.fails = 0
	b.probing, b.probe = false, nil
}

// onFailure records a busy rejection or attempt timeout. A failed half-open
// probe re-opens immediately; while closed, Threshold consecutive failures
// trip the breaker.
func (b *breaker) onFailure() {
	switch b.state {
	case bkHalfOpen:
		b.trip()
	case bkClosed:
		b.fails++
		if b.fails >= b.cfg.Threshold {
			b.trip()
		}
	}
}

func (b *breaker) trip() {
	b.state = bkOpen
	b.openedAt = b.c.env.Now()
	b.fails = 0
	b.probing, b.probe = false, nil
	b.c.Faults.Inc(metrics.CBreakerOpen)
}

// claim makes att the holder of a probe slot that allow took for it; release
// hands the slot back when att, holding it, ended with no verdict to give.
func (b *breaker) claim(att *attempt) {
	if b.probing && b.probe == nil {
		b.probe = att
	}
}

func (b *breaker) release(att *attempt) {
	if b.probe == att {
		b.probing, b.probe = false, nil
	}
}

// noteSuccess / noteFailure feed the connection's breaker, if one is
// attached. Kept on conn so every caller tolerates a disabled breaker.
func (cn *conn) noteSuccess() {
	if cn.brk != nil {
		cn.brk.onSuccess()
	}
}

func (cn *conn) noteFailure() {
	if cn.brk != nil {
		cn.brk.onFailure()
	}
}

// routable reports whether cn accepts new traffic: not retired, and no
// breaker (or the breaker admits). Side-effect-free.
func (cn *conn) routable() bool {
	return !cn.retired && (cn.brk == nil || cn.brk.admits())
}
