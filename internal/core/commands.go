package core

import (
	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
)

// This file adds the remaining libmemcached commands as blocking calls on
// both transports: memcached_add/replace/cas/append/prepend/
// incr/decr/touch, plus multi-get. The paper's non-blocking extensions
// apply to Set/Get; everything else keeps classic blocking semantics. Each
// is one roundTrip (client.go).

// Add stores a value only if the key does not exist (memcached_add).
func (c *Client) Add(p *sim.Proc, key string, valueSize int, value any, flags, expire uint32) protocol.Status {
	return c.roundTrip(p, Op{
		Code: protocol.OpAdd, Key: key,
		ValueSize: valueSize, Value: value, Flags: flags, Expire: expire,
	}).Status
}

// Replace stores a value only if the key exists (memcached_replace).
func (c *Client) Replace(p *sim.Proc, key string, valueSize int, value any, flags, expire uint32) protocol.Status {
	return c.roundTrip(p, Op{
		Code: protocol.OpReplace, Key: key,
		ValueSize: valueSize, Value: value, Flags: flags, Expire: expire,
	}).Status
}

// CompareAndSet stores a value only if cas matches the item's current token
// (memcached_cas). Fetch the token with Gets.
func (c *Client) CompareAndSet(p *sim.Proc, key string, valueSize int, value any, flags, expire uint32, cas uint64) protocol.Status {
	return c.roundTrip(p, Op{
		Code: protocol.OpCAS, Key: key, CAS: cas,
		ValueSize: valueSize, Value: value, Flags: flags, Expire: expire,
	}).Status
}

// Gets fetches a value together with its CAS token (memcached_gets), from
// the server a CompareAndSet on the key would go to (see casRead).
func (c *Client) Gets(p *sim.Proc, key string) (value any, size int, cas uint64, status protocol.Status) {
	req := c.roundTrip(p, Op{Code: protocol.OpGet, Key: key}, casRead)
	return req.Value, req.ValueSize, req.CAS, req.Status
}

// Append concatenates extra bytes after the stored value (memcached_append).
func (c *Client) Append(p *sim.Proc, key string, extraSize int, extra any) protocol.Status {
	return c.roundTrip(p, Op{
		Code: protocol.OpAppend, Key: key, ValueSize: extraSize, Value: extra,
	}).Status
}

// Prepend concatenates extra bytes before the stored value
// (memcached_prepend).
func (c *Client) Prepend(p *sim.Proc, key string, extraSize int, extra any) protocol.Status {
	return c.roundTrip(p, Op{
		Code: protocol.OpPrepend, Key: key, ValueSize: extraSize, Value: extra,
	}).Status
}

// Incr adds delta to a counter and returns the new value
// (memcached_increment). Store counters with SetCounter.
func (c *Client) Incr(p *sim.Proc, key string, delta uint64) (uint64, protocol.Status) {
	req := c.roundTrip(p, Op{Code: protocol.OpIncr, Key: key, Delta: delta})
	v, _ := req.Value.(uint64)
	return v, req.Status
}

// Decr subtracts delta from a counter, flooring at zero
// (memcached_decrement).
func (c *Client) Decr(p *sim.Proc, key string, delta uint64) (uint64, protocol.Status) {
	req := c.roundTrip(p, Op{Code: protocol.OpDecr, Key: key, Delta: delta})
	v, _ := req.Value.(uint64)
	return v, req.Status
}

// CounterSize is the stored size of a numeric counter value.
const CounterSize = 20

// SetCounter initializes a counter key (a Set whose value is a uint64, the
// form Incr/Decr require).
func (c *Client) SetCounter(p *sim.Proc, key string, initial uint64) protocol.Status {
	return c.roundTrip(p, Op{
		Code: protocol.OpSet, Key: key, ValueSize: CounterSize, Value: initial,
	}).Status
}

// Touch updates a key's expiration without moving data (memcached_touch).
func (c *Client) Touch(p *sim.Proc, key string, expire uint32) protocol.Status {
	return c.roundTrip(p, Op{Code: protocol.OpTouch, Key: key, Expire: expire}).Status
}

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

// MGet fetches many keys at once (memcached_mget + fetch): on RDMA it
// issues every Get non-blockingly — the requests fan out across the server
// pool in parallel — and waits for the full batch; on IPoIB each Get is a
// sequential round trip. Results are returned in key order; missing keys
// have Status NotFound.
func (c *Client) MGet(p *sim.Proc, keys []string) []*Req {
	out := make([]*Req, 0, len(keys))
	for _, k := range keys {
		out = append(out, c.begin(p, Op{Code: protocol.OpGet, Key: k}))
	}
	c.WaitAll(p, out)
	return out
}
