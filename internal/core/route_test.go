package core

import (
	"fmt"
	"testing"

	"hybridkv/internal/protocol"
	"hybridkv/internal/server"
	"hybridkv/internal/sim"
)

// TestRouteMatrix pins the routing pipeline cell by cell: replication
// factor × member states × intent → which member of the key's candidate
// order gets the attempt, and which routing counters moved.
//
// A row names members by their position in the key's order (0 is the
// primary, or the home server of an unreplicated key). states holds one
// letter per position, missing positions being healthy:
//
//	.  healthy            R  retired           O  breaker open (cooling down)
//	H  breaker half-open, probe slot free      B  GET class browned out
//	X  H and B together
func TestRouteMatrix(t *testing.T) {
	const (
		none    = -1 // cur: a first attempt
		outside = -2 // cur: a connection that is not in the key's replica set
		key     = "matrix-key"
	)
	// ticks is how many brown-out probe ticks were spent (connHealth.probeSeq).
	type counts struct{ reroutes, slow, skips, fanouts, ticks int64 }
	rows := []struct {
		name    string
		servers int
		r       int // replication factor; 1 = unreplicated
		states  string
		in      intent
		hot     bool   // the key is in the client's hot set
		rr      uint64 // hot round-robin cursor before the call
		cur     int
		want    int
		moved   counts
	}{
		// Unreplicated: the order is the home server, then the pool.
		{"r1/write", 4, 1, "", routeWrite, false, 0, none, 0, counts{}},
		{"r1/write/home-open", 4, 1, "O", routeWrite, false, 0, none, 1, counts{reroutes: 1}},
		{"r1/write/home-retired-next-open", 4, 1, "RO", routeWrite, false, 0, none, 2, counts{reroutes: 1}},
		{"r1/write/all-open-fails-through", 4, 1, "OOOO", routeWrite, false, 0, none, 0, counts{}},
		{"r1/write/half-open-takes-the-probe", 4, 1, "H", routeWrite, false, 0, none, 0, counts{}},
		{"r1/get/browned-home-stays", 4, 1, "B", routeGet, false, 0, none, 0, counts{}},
		{"r1/get/home-open", 4, 1, "O", routeGet, false, 0, none, 1, counts{reroutes: 1}},
		{"r1/next", 4, 1, "", routeNext, false, 0, 0, 1, counts{}},
		{"r1/next/skips-open", 4, 1, ".O", routeNext, false, 0, 0, 2, counts{skips: 1}},
		{"r1/next/wraps-past-retired", 4, 1, "...R", routeNext, false, 0, 2, 0, counts{skips: 1}},
		{"r1/next/all-open-fails-through", 4, 1, ".OOO", routeNext, false, 0, 0, 1, counts{skips: 3}},
		{"r1/fallback/browned-stays", 4, 1, "B", routeFallback, false, 0, 0, 0, counts{}},

		// One connection: nowhere else to go, whatever its state.
		{"single/write", 1, 1, "", routeWrite, false, 0, none, 0, counts{}},
		{"single/write/open", 1, 1, "O", routeWrite, false, 0, none, 0, counts{}},
		{"single/get/browned", 1, 1, "B", routeGet, false, 0, none, 0, counts{}},
		{"single/next", 1, 1, "", routeNext, false, 0, 0, 0, counts{}},
		{"single/next/open", 1, 1, "O", routeNext, false, 0, 0, 0, counts{}},
		// A replicated key whose set has shrunk to one member: nothing to
		// reroute to, so no probe tick is spent either.
		{"one-member-set/get/browned", 1, 2, "B", routeGet, false, 0, none, 0, counts{}},
		{"one-member-set/fallback/browned", 1, 2, "B", routeFallback, false, 0, 0, 0, counts{}},

		// R = 2.
		{"r2/write", 4, 2, "", routeWrite, false, 0, none, 0, counts{}},
		{"r2/write/primary-open", 4, 2, "O", routeWrite, false, 0, none, 1, counts{reroutes: 1}},
		{"r2/write/primary-retired", 4, 2, "R", routeWrite, false, 0, none, 1, counts{reroutes: 1}},
		{"r2/write/both-open-fails-through", 4, 2, "OO", routeWrite, false, 0, none, 0, counts{}},
		{"r2/write/ignores-brown-out", 4, 2, "B", routeWrite, false, 0, none, 0, counts{}},
		{"r2/write/hot-key-stays-primary", 4, 2, "", routeWrite, true, 1, none, 0, counts{}},
		{"r2/get", 4, 2, "", routeGet, false, 0, none, 0, counts{}},
		{"r2/get/primary-browned", 4, 2, "B", routeGet, false, 0, none, 1, counts{slow: 1, ticks: 1}},
		{"r2/get/both-browned-last-live", 4, 2, "BB", routeGet, false, 0, none, 0, counts{ticks: 1}},
		{"r2/get/browned-and-backup-open", 4, 2, "BO", routeGet, false, 0, none, 0, counts{ticks: 1}},
		{"r2/get/primary-open-backup-browned", 4, 2, "OB", routeGet, false, 0, none, 1, counts{reroutes: 1, ticks: 1}},
		{"r2/get/around-browned-half-open", 4, 2, "X", routeGet, false, 0, none, 1, counts{slow: 1, ticks: 1}},
		{"r2/get/half-open-backup-takes-the-probe", 4, 2, "BH", routeGet, false, 0, none, 1, counts{slow: 1, ticks: 1}},
		{"r2/hot", 4, 2, "", routeGet, true, 0, none, 0, counts{fanouts: 1}},
		{"r2/hot/rotates", 4, 2, "", routeGet, true, 1, none, 1, counts{fanouts: 1}},
		{"r2/hot/around-browned", 4, 2, ".B", routeGet, true, 1, none, 0, counts{slow: 1, fanouts: 1}},
		{"r2/hot/around-open", 4, 2, ".O", routeGet, true, 1, none, 0, counts{reroutes: 1, fanouts: 1}},
		{"r2/hot/both-browned-no-probe-tick", 4, 2, "BB", routeGet, true, 1, none, 1, counts{fanouts: 1}},
		{"r2/hot/both-open-fails-through-uncounted", 4, 2, "OO", routeGet, true, 1, none, 1, counts{}},
		{"r2/next/after-primary", 4, 2, "", routeNext, false, 0, 0, 1, counts{}},
		{"r2/next/after-backup", 4, 2, "", routeNext, false, 0, 1, 0, counts{}},
		{"r2/next/only-other-open-fails-through", 4, 2, ".O", routeNext, false, 0, 0, 1, counts{skips: 1}},
		{"r2/next/ignores-brown-out", 4, 2, ".B", routeNext, false, 0, 0, 1, counts{}},
		{"r2/next/cur-outside-set-skips-primary", 4, 2, "", routeNext, false, 0, outside, 1, counts{}},
		{"r2/fallback/healthy-stays", 4, 2, "", routeFallback, false, 0, 0, 0, counts{}},
		{"r2/fallback/open-but-healthy-stays", 4, 2, "O", routeFallback, false, 0, 0, 0, counts{}},
		{"r2/fallback/browned-moves", 4, 2, "B", routeFallback, false, 0, 0, 1, counts{slow: 1}},
		{"r2/fallback/both-browned-stays", 4, 2, "BB", routeFallback, false, 0, 0, 0, counts{}},
		{"r2/fallback/browned-other-open-stays", 4, 2, "BO", routeFallback, false, 0, 0, 0, counts{}},

		// R = 3.
		{"r3/write/retired-open", 4, 3, "RO", routeWrite, false, 0, none, 2, counts{reroutes: 1}},
		{"r3/get/open-browned-ok", 4, 3, "OB", routeGet, false, 0, none, 2, counts{reroutes: 1, slow: 1, ticks: 1}},
		{"r3/get/all-browned-last-live", 4, 3, "BBB", routeGet, false, 0, none, 0, counts{ticks: 1}},
		{"r3/hot/rotates", 4, 3, "", routeGet, true, 2, none, 2, counts{fanouts: 1}},
		// A hot GET counts one reason for leaving its start member: the open
		// breaker there, not also the browned member it then passed.
		{"r3/hot/open-then-browned", 4, 3, ".OB", routeGet, true, 1, none, 0, counts{reroutes: 1, fanouts: 1}},
		{"r3/hot/browned-then-open", 4, 3, ".BO", routeGet, true, 1, none, 0, counts{slow: 1, fanouts: 1}},
		{"r3/next/skips-open-wraps", 4, 3, "..O", routeNext, false, 0, 1, 0, counts{skips: 1}},
		{"r3/next/cur-outside-set-skips-primary", 4, 3, "", routeNext, false, 0, outside, 1, counts{}},
		// A fallback leaving its browned connection walks the set primary first,
		// not from the position behind it.
		{"r3/fallback/browned-moves-to-primary", 4, 3, ".B", routeFallback, false, 0, 1, 0, counts{slow: 1}},
		{"r3/fallback/primary-open-walks-on", 4, 3, "OB", routeFallback, false, 0, 1, 2, counts{slow: 1}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			r := newTestRig(rigOpts{
				transport: RDMA, pipeline: server.Async,
				servers: row.servers, replicas: row.r,
				clientCfg: func(cc *Config) {
					cc.Breaker = BreakerConfig{Threshold: 1, Cooldown: sim.Millisecond}
					cc.Health = HealthConfig{Enabled: true}
					cc.HotFanout = true
				},
			})
			c := r.client
			var order []*conn
			if set := c.replicas(key); set != nil {
				for _, id := range set {
					order = append(order, c.conns[id])
				}
			} else {
				home := c.ring.Pick(key)
				for i := range c.conns {
					order = append(order, c.conns[(home+i)%len(c.conns)])
				}
			}
			for pos, st := range row.states {
				cn := order[pos]
				switch st {
				case 'R':
					c.Retire(cn.serverID)
				case 'O':
					cn.noteFailure()
				case 'H', 'X':
					cn.brk.state = bkHalfOpen
				}
				if st == 'B' || st == 'X' {
					cn.health.browned[hcGet] = true
				}
			}
			if row.hot {
				c.hot = map[uint64]struct{}{protocol.KeyDigest(key): {}}
			}
			c.hotRR = row.rr
			var cur *conn
			switch row.cur {
			case none:
			case outside:
				for _, cn := range c.conns {
					if position(order, cn) < 0 {
						cur = cn
					}
				}
				if cur == nil {
					t.Fatal("every connection is in the key's replica set")
				}
			default:
				cur = order[row.cur]
			}

			before := c.Stats()
			got := c.route(key, row.in, cur)
			after := c.Stats()

			if got != order[row.want] {
				t.Errorf("routed to %s, want position %d (server%d)", describe(order, got), row.want, order[row.want].serverID)
			}
			moved := counts{
				reroutes: after.BreakerReroutes - before.BreakerReroutes,
				slow:     after.SlowRoutedGets - before.SlowRoutedGets,
				skips:    after.FailoverSkips - before.FailoverSkips,
				fanouts:  after.HotFanouts - before.HotFanouts,
			}
			for _, cn := range c.conns {
				if cn.health != nil { // Retire releases it
					moved.ticks += int64(cn.health.probeSeq)
				}
			}
			if moved != row.moved {
				t.Errorf("counters moved %+v, want %+v", moved, row.moved)
			}
			// The half-open probe slot goes to the connection the attempt is
			// sent on and to no other.
			for pos, st := range row.states {
				if st != 'H' && st != 'X' {
					continue
				}
				if cn := order[pos]; cn.brk.probing != (cn == got) {
					t.Errorf("position %d: probe slot taken = %v, chosen = %v", pos, cn.brk.probing, cn == got)
				}
			}
		})
	}
}

// position returns cn's place in order, -1 when it is not in it.
func position(order []*conn, cn *conn) int {
	for pos, have := range order {
		if have == cn {
			return pos
		}
	}
	return -1
}

func describe(order []*conn, cn *conn) string {
	if pos := position(order, cn); pos >= 0 {
		return fmt.Sprintf("position %d (server%d)", pos, cn.serverID)
	}
	return fmt.Sprintf("server%d, outside the order", cn.serverID)
}

// TestRouteDoesNotAllocate: route runs once per attempt, on the memoised
// replica set.
func TestRouteDoesNotAllocate(t *testing.T) {
	for _, replicas := range []int{1, 3} {
		r := newTestRig(rigOpts{transport: RDMA, pipeline: server.Async, servers: 4, replicas: replicas})
		c := r.client
		keys := make([]string, 64)
		for i := range keys {
			keys[i] = fmt.Sprintf("alloc:%02d", i)
			c.route(keys[i], routeGet, nil) // warm the ring's memo
		}
		i := 0
		if got := testing.AllocsPerRun(1000, func() {
			k := keys[i%len(keys)]
			i++
			cn := c.route(k, routeGet, nil)
			c.route(k, routeWrite, nil)
			c.route(k, routeNext, cn)
		}); got > 0 {
			t.Errorf("R=%d: %v allocations per three routes, want 0", replicas, got)
		}
	}
}

// TestGetsRoutesAsTheWriteWill: the token Gets returns is checked by the
// server CompareAndSet goes to, so the read behind it must not take a GET's
// detours — here around a browned primary. (The hot fan-out half, on real
// replicas, is cluster's TestGetsReadsTheTokenCompareAndSetChecks.)
func TestGetsRoutesAsTheWriteWill(t *testing.T) {
	r := newTestRig(rigOpts{
		transport: RDMA, pipeline: server.Async, servers: 4, replicas: 2,
		clientCfg: func(cc *Config) { cc.Health = HealthConfig{Enabled: true} },
	})
	c := r.client
	const key = "token-key"
	primary := c.conns[c.replicas(key)[0]]
	primary.health.browned[hcGet] = true
	r.env.Spawn("gets", func(p *sim.Proc) {
		if get := c.roundTrip(p, Op{Code: protocol.OpGet, Key: key}); get.conn == primary {
			t.Errorf("a plain GET stayed on the browned primary: the rig is not rerouting")
		}
		if gets := c.roundTrip(p, Op{Code: protocol.OpGet, Key: key}, casRead); gets.conn != primary {
			t.Errorf("Gets read server%d, CompareAndSet writes server%d", gets.conn.serverID, primary.serverID)
		}
		if cas := c.roundTrip(p, Op{Code: protocol.OpCAS, Key: key}); cas.conn != primary {
			t.Errorf("CompareAndSet went to server%d, want the primary", cas.conn.serverID)
		}
	})
	r.env.Run()
}
