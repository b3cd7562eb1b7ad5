package core

import (
	"hybridkv/internal/metrics"
	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
)

// This file is the client half of hot-key serving: servers detect their
// hottest keys with a space-saving sketch (internal/store/hotkeys.go) and
// publish the digests on the OpDirQuery bootstrap; the client unions the
// per-server sets and, with Config.HotFanout on a replicated cluster,
// route starts each hot GET's walk one member further round the key's
// replica set instead of pinning it to the primary. Consistency holds
// because replicated writes ack only after every replica applied (chain
// forwarding), and a cold-recovered replica withholds unconfirmed keys from
// both its RPC path (suspect gating) and its bypass directory (republish is
// deferred until confirmation) — so any replica a hot GET lands on serves a
// value at least as new as the last acked write.

// hotSampleEvery paces the hot-set refresh, and with it the heat sample:
// every this many non-CAS GETs of a bypass client, one OpDirQuery goes out
// on the GET's connection, carrying the GET's key when the GET resolves
// one-sided — a read the server's sketch would otherwise never see.
// Ops-triggered, never a timer: an idle client learns nothing and costs
// nothing, and the simulation's Run still drains.
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

// tickHeat counts one non-CAS GET issued on cn. Every hotSampleEvery-th
// hands cn's refresher the GET's key — key is empty when the GET goes to the
// server, whose sketch then counts it itself. A tick whose connection is not
// bootstrapped, or already has a refresh in flight, sends nothing: the next
// tick samples instead.
func (c *Client) tickHeat(cn *conn, key string) {
	c.hotGets++
	if c.hotGets%hotSampleEvery != 0 || cn.hotRefresh || cn.dirState != dirReady {
		return
	}
	cn.hotRefresh = true
	cn.heat.TryPut(key)
}

// refresher is cn's hot-set refresh process, one per bypass connection:
// parked until tickHeat hands it a key, it sends one OpDirQuery carrying it
// and installs the answer.
func (cn *conn) refresher(p *sim.Proc) {
	c := cn.c
	for {
		key, _ := cn.heat.Get(p)
		c.Counters.Inc(metrics.CHotRefreshes)
		if key != "" {
			c.Counters.Inc(metrics.CHotSamples)
		}
		c.queryDir(p, cn, key)
		cn.hotRefresh = false
	}
}
