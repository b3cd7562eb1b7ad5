package core

import (
	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
)

// The memcached command alphabet is protocol.Opcode through Issue, on both
// transports: memcached_add/cas/incr/delete are Issue(p, Op{Code:
// protocol.OpAdd, ...}) and a Wait, so each takes the same options — a
// deadline, a retry budget — as a Set or a Get, and a multi-get is a loop of
// Issue and one WaitAll. What is left here is the one command an Op cannot
// spell: Gets, whose GET routes as the CompareAndSet after it will.

// Gets fetches a value together with its CAS token (memcached_gets), from
// the server an OpCAS on the key would go to (see casRead).
func (c *Client) Gets(p *sim.Proc, key string) (value any, size int, cas uint64, status protocol.Status) {
	req := c.roundTrip(p, Op{Code: protocol.OpGet, Key: key}, casRead)
	value, size, cas, status = req.Value, req.ValueSize, req.CAS, req.Status
	c.Release(req)
	return value, size, cas, status
}

// CounterSize is the stored size of a numeric counter value: what OpIncr
// works on is an OpSet of this size whose value is a uint64.
const CounterSize = 20
