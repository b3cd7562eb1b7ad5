package core

import (
	"fmt"

	"hybridkv/internal/metrics"
	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
)

// This file is the client half of hot-key serving: servers detect their
// hottest keys with a space-saving sketch (internal/store/hotkeys.go) and
// publish the digests on the OpDirQuery bootstrap; the client unions the
// per-server sets and, with Config.HotFanout on a replicated cluster,
// routes hot GETs round-robin across the key's whole replica set instead
// of pinning them to the primary. Consistency holds because replicated
// writes ack only after every replica applied (chain forwarding), and a
// cold-recovered replica withholds unconfirmed keys from both its RPC path
// (suspect gating) and its bypass directory (republish is deferred until
// confirmation) — so any replica a hot GET lands on serves a value at
// least as new as the last acked write.

// hotRefreshEvery paces hot-set refresh: one piggybacked OpDirQuery per
// this many bypass-eligible GETs per client. Ops-triggered, never a timer:
// an idle client learns nothing and costs nothing, and the simulation's
// Run still drains.
const hotRefreshEvery = 256

// hotSampleEvery routes every Nth auto-path GET via RPC instead of bypass,
// feeding the server-side sketch a read-heat sample the one-sided path would
// otherwise hide (see bypassEligible).
const hotSampleEvery = 64

// noteHot installs a server's published hot set on its connection and
// rebuilds the client's union. Sets shrink as keys cool, so the union is
// recomputed from scratch rather than accumulated.
func (c *Client) noteHot(cn *conn, info *protocol.DirectoryInfo) {
	if info.HotVersion == cn.hotVersion && len(info.Hot) == len(cn.hotSet) {
		return
	}
	cn.hotSet = info.Hot
	cn.hotVersion = info.HotVersion
	c.rebuildHot()
}

// rebuildHot recomputes the hot-set union from the per-connection sets.
// Sets shrink as keys cool (and vanish on retire/epoch invalidation), so
// the union is rebuilt from scratch rather than accumulated.
func (c *Client) rebuildHot() {
	union := make(map[uint64]struct{})
	for _, other := range c.conns {
		for _, d := range other.hotSet {
			union[d] = struct{}{}
		}
	}
	c.hot = union
}

// isHot reports whether a key digest is in the client's current hot set.
func (c *Client) isHot(digest uint64) bool {
	if len(c.hot) == 0 {
		return false
	}
	_, ok := c.hot[digest]
	return ok
}

// pickGet routes one GET: hot keys on a fanout-enabled replicated client
// spread round-robin across the key's replica set (breaker- and
// health-aware, like pick/pickRead); everything else routes as pickRead
// does — pick's choice, unless it is browned and a healthy replica
// exists. With health tracking off, healthy() is uniformly true and both
// paths are byte-identical to the pre-health client.
func (c *Client) pickGet(key string) *conn {
	if !c.cfg.HotFanout || c.cfg.Replicas <= 1 || !c.isHot(protocol.KeyDigest(key)) {
		return c.pickRead(key)
	}
	set := c.replicas(key)
	start := int(c.hotRR % uint64(len(set)))
	c.hotRR++
	// First pass wants a breaker-admitted AND healthy member; a skip past
	// an admitted-but-browned head is a slow-route, a skip past a tripped
	// breaker is the usual reroute.
	for i := 0; i < len(set); i++ {
		cn := c.conns[set[(start+i)%len(set)]]
		if cn.allows() && cn.readHealthy() {
			if i > 0 {
				if c.conns[set[start]].allows() {
					c.Faults.Inc(metrics.CSlowRoutedGets)
				} else {
					c.Faults.Inc(metrics.CBreakerReroutes)
				}
			}
			c.Faults.Inc(metrics.CHotFanouts)
			return cn
		}
	}
	// Every healthy member is breaker-blocked (or the whole set is
	// browned): fall back to breaker-only preference — a slow replica
	// still beats none (last-live guard).
	for i := 0; i < len(set); i++ {
		cn := c.conns[set[(start+i)%len(set)]]
		if cn.allows() {
			if i > 0 {
				c.Faults.Inc(metrics.CBreakerReroutes)
			}
			c.Faults.Inc(metrics.CHotFanouts)
			return cn
		}
	}
	return c.conns[set[start]]
}

// maybeRefreshHot paces the piggybacked hot-set refresh from GET issue
// activity: every hotRefreshEvery bypass-eligible GETs, one OpDirQuery is
// re-issued on the GET's connection and the hot set updated from the
// response. Single-flight per connection.
func (c *Client) maybeRefreshHot(cn *conn) {
	if !c.cfg.Bypass {
		return
	}
	c.hotGets++
	if c.hotGets%hotRefreshEvery != 0 || cn.hotRefresh || cn.dirState != dirReady {
		return
	}
	cn.hotRefresh = true
	c.env.Spawn(fmt.Sprintf("client/hotrefresh%d", cn.serverID), func(p *sim.Proc) {
		defer func() { cn.hotRefresh = false }()
		c.Faults.Inc(metrics.CHotRefreshes)
		qreq := c.newReq(protocol.OpDirQuery, "", cn)
		c.Issued++
		c.enqueueWire(qreq, cn, c.wireFor(qreq, cn, qreq.ID))
		if !p.WaitTimeout(&qreq.done, dirQueryTimeout) {
			c.abandon(qreq.cur)
			return
		}
		if qreq.Status != protocol.StatusOK {
			return
		}
		if info, ok := qreq.Value.(*protocol.DirectoryInfo); ok {
			cn.dir = info
			c.noteMemberEpoch(cn, info)
			c.noteHot(cn, info)
		}
	})
}
