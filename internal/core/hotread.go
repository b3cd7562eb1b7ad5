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
// route starts each hot GET's walk one member further round the key's
// replica set instead of pinning it to the primary. Consistency holds
// because replicated writes ack only after every replica applied (chain
// forwarding), and a cold-recovered replica withholds unconfirmed keys from
// both its RPC path (suspect gating) and its bypass directory (republish is
// deferred until confirmation) — so any replica a hot GET lands on serves a
// value at least as new as the last acked write.

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
		c.Counters.Inc(metrics.CHotRefreshes)
		c.queryDir(p, cn)
	})
}
