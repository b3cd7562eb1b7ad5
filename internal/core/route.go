package core

import (
	"hybridkv/internal/metrics"
	"hybridkv/internal/protocol"
)

// Routing: which server one attempt of one operation goes to. Every attempt
// asks route — the first one Issue makes (on either transport, a buffered
// Set's included), a retransmit, a hedge, a bypass resolution surrendering to
// RPC — and route is the only code that reads the replica set, the retired
// flag, the breakers and the brown-out state. One walk decides:
//
//	candidate order → exclusion filter → preference → last-live guard
//
// The order is the key's replica set, primary first, on a replicated
// cluster (the membership's union of old and new owners while a migration
// runs, so an attempt can still reach an old owner holding a mid-handoff
// key); on an unreplicated one it is the key's home server followed by the
// rest of the pool in connection order — not replicas, but a miss on a
// neighbour beats queueing behind a dead home. The filter drops retired
// connections and those whose breaker refuses traffic; GETs on a replicated
// cluster also pass over a member whose GET class is browned out
// (health.go). The preference is the first candidate left, counted from
// where the intent starts the walk. The guard is what happens when the
// filter leaves nothing: a browned member still beats none, and when every
// candidate is retired or behind an open breaker the head of the walk takes
// the attempt anyway — failing through beats failing everything locally.

// intent says what the attempt being routed is for.
type intent int

const (
	// routeWrite is the first attempt of anything but a GET: primary first.
	routeWrite intent = iota
	// routeGet is the first attempt of a GET: primary first, around a
	// browned member; a server-detected hot key (hotread.go) starts its walk
	// one member further round the set on every GET instead. The GET behind
	// Gets is a routeWrite (casRead, issue.go).
	routeGet
	// routeNext is the attempt after the one on cur — a retransmit failing
	// over, a hedge: the walk starts behind cur and never returns to it.
	routeNext
	// routeFallback is a bypass resolution on cur surrendering to RPC: it
	// stays on cur unless cur is browned, then walks the set primary first.
	routeFallback
)

// intentOf is the first-attempt intent of an opcode.
func intentOf(op protocol.Opcode) intent {
	if op == protocol.OpGet {
		return routeGet
	}
	return routeWrite
}

// replicas returns key's replica set under the shared membership view, or
// nil on an unreplicated client.
func (c *Client) replicas(k protocol.Key) []int {
	if m := c.cfg.Membership; m != nil {
		return m.ReplicaSet(k, m.Factor())
	}
	return nil
}

// order is one key's candidate order; positions wrap.
type order struct {
	conns []*conn
	set   []int // the replica set; nil when unreplicated
	home  int   // unreplicated: the key's server on the ring
}

func (o order) len() int {
	if o.set != nil {
		return len(o.set)
	}
	return len(o.conns)
}

func (o order) at(i int) *conn {
	if o.set != nil {
		return o.conns[o.set[i%len(o.set)]]
	}
	return o.conns[(o.home+i)%len(o.conns)]
}

// index returns cn's position. A connection that is no longer in the
// replica set (its server left the key's set at an epoch change) counts as
// position 0, so the walk behind it starts at the set's second member and
// never retries onto the new primary: kept as failoverNext had it, because
// the membership experiment's numbers depend on it.
func (o order) index(cn *conn) int {
	if o.set == nil {
		return (cn.serverID - o.home + len(o.conns)) % len(o.conns)
	}
	for i, id := range o.set {
		if id == cn.serverID {
			return i
		}
	}
	return 0
}

// route picks the connection for one attempt on key. cur is the connection
// of the attempt before it (routeNext, routeFallback), nil for a first
// attempt. It allocates nothing outside a migration's union sets.
func (c *Client) route(k protocol.Key, in intent, cur *conn) *conn {
	if len(c.conns) == 0 {
		panic("core: no server connections")
	}
	o := order{conns: c.conns, set: c.replicas(k)}
	if o.set == nil {
		o.home = c.ring.Pick(k)
	}
	n := o.len()
	// Brown-out reorders reads among replicas only: a pool neighbour does not
	// hold the key, and a write cannot be moved off its chain.
	wantHealthy := o.set != nil && (in == routeGet || in == routeFallback)

	// The walk covers positions start+skip … start+n-1.
	start, skip := 0, 0
	// live is the first candidate the exclusion filter lets through, best the
	// first that is also healthy.
	var live, best *conn
	hot := false
	switch in {
	case routeGet:
		if c.cfg.HotFanout && o.set != nil && c.isHot(protocol.KeyDigest(k.Hash)) {
			hot = true
			start = int(c.hotRR % uint64(n))
			c.hotRR++
		}
	case routeNext:
		start, skip = o.index(cur), 1
	case routeFallback:
		// The request is already on cur, admitted when it was first routed:
		// cur is not asked again. Browned, it is the last resort of a walk
		// over the whole set, primary first.
		if !wantHealthy || cur.readHealthy() {
			return cur
		}
		live = cur
	}

	refused := int64(0)
	for i := skip; i < n && best == nil; i++ {
		cn := o.at(start + i)
		if !cn.routable() {
			refused++
			continue
		}
		if live == nil {
			live = cn
		}
		if !wantHealthy || cn.readHealthy() {
			best = cn
		}
	}

	// rerouted: a first attempt whose head of the walk was refused, a later
	// member taking its place.
	rerouted := false
	switch in {
	case routeNext:
		if refused > 0 {
			c.Counters.Add(metrics.CFailoverSkip, refused)
		}
	case routeWrite, routeGet:
		if rerouted = live != nil && live != o.at(start); rerouted {
			c.Counters.Inc(metrics.CBreakerReroutes)
		}
	}
	if live == nil {
		// Everything is retired or behind an open breaker: fail through to
		// the head of the walk — or stay put when the walk is empty (a
		// single connection, a one-member set).
		if skip >= n {
			return cur
		}
		return o.at(start + skip)
	}
	if hot {
		c.Counters.Inc(metrics.CHotFanouts)
	}
	if live != best {
		// live is browned. It still gets the attempt when it is the last
		// live member, and a cold GET's gets every healthProbeEvery-th as the paced
		// probe that keeps its recovery observable (the tick is spent whether
		// or not a healthy member exists). A hot GET that already counted as
		// a breaker reroute is not counted again.
		probe := in == routeGet && !hot && n > 1 && live.health.admitProbe()
		if probe || best == nil {
			best = live
		} else if !(hot && rerouted) {
			c.Counters.Inc(metrics.CSlowRoutedGets)
		}
	}
	if best == cur {
		return cur // a fallback staying put
	}
	// The one admission, for the connection the attempt will be sent on:
	// the walk above only asked.
	if best.brk != nil {
		best.brk.allow()
	}
	return best
}
