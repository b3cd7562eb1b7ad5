package core

import (
	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
)

// The memcached command alphabet is protocol.Opcode through Issue, on both
// transports: memcached_add/replace/cas/append/prepend/incr/decr/touch/delete
// are Issue(p, Op{Code: protocol.OpAdd, ...}) and a Wait, so each takes the
// same options — a deadline, a retry budget — as a Set or a Get, and a
// multi-get is a loop of Issue and one WaitAll. What is left here is the two
// commands an Op cannot spell: Gets, whose GET routes as the CompareAndSet
// after it will, and FlushAll, which addresses every connection and no key.

// Gets fetches a value together with its CAS token (memcached_gets), from
// the server an OpCAS on the key would go to (see casRead).
func (c *Client) Gets(p *sim.Proc, key string) (value any, size int, cas uint64, status protocol.Status) {
	req := c.roundTrip(p, Op{Code: protocol.OpGet, Key: key}, casRead)
	return req.Value, req.ValueSize, req.CAS, req.Status
}

// CounterSize is the stored size of a numeric counter value: what OpIncr and
// OpDecr work on is an OpSet of this size whose value is a uint64.
const CounterSize = 20

// FlushAll invalidates every item on every connected server
// (memcached_flush). Blocking; returns the first non-OK status.
func (c *Client) FlushAll(p *sim.Proc) protocol.Status {
	out := protocol.StatusOK
	for _, cn := range c.conns {
		req := c.beginOn(p, cn, Op{Code: protocol.OpFlushAll}, new(Req))
		c.Wait(p, req)
		if req.Status != protocol.StatusOK && out == protocol.StatusOK {
			out = req.Status
		}
	}
	return out
}
