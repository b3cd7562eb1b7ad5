package store

import (
	"sort"

	"hybridkv/internal/hybridslab"
	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
)

// This file implements the rest of the memcached command set on top of the
// hybrid slab manager: conditional stores (add/replace/cas), value
// concatenation (append/prepend), counter arithmetic (incr/decr) and
// expiry updates (touch). The paper's non-blocking extensions target
// Set/Get; these commands complete the server so real libmemcached
// applications map onto it.

// lookup returns the live item for key, lazily expiring it.
func (s *Store) lookup(p *sim.Proc, key string) *hybridslab.Item {
	it := s.table[key]
	if it == nil {
		return nil
	}
	if expired(it, s.env.Now()) {
		s.mgr.Release(it)
		delete(s.table, key)
		s.unpublish(key)
		s.Expired++
		return nil
	}
	return it
}

// Every command below decides on what the key holds and then suspends — in
// the allocation, an eviction, a copy, the update itself — before it acts, and
// a server's storage workers run them side by side. So each asks again at the
// instant it acts: the conditional stores pass their condition to SetIf as the
// swap guard, and the read-modify-write commands and Touch check that the
// entry they read is still the entry (still) and start over on what the key
// holds now when it is not. Uncontended, nothing here costs more than it did.

// setWhen is the one conditional store behind Add, Replace and CompareAndSet:
// they differ in cond alone, which maps the key's live item (nil: none) to
// StatusStored — go ahead — or to the refusal to answer. cond is asked on
// arrival, so a refusal costs no allocation, and again at the swap: one CAS
// token buys one store, a fresh key is added once.
func (s *Store) setWhen(p *sim.Proc, key string, valueSize int, value any, flags, expire uint32, cond func(*hybridslab.Item) protocol.Status) protocol.Status {
	expireAt := ExpireAt(s.env.Now(), expire)
	p.Sleep(hashCost)
	verdict := cond(s.lookup(p, key))
	if verdict != protocol.StatusStored {
		return verdict
	}
	st := s.SetIf(p, key, valueSize, value, flags, expireAt, func() bool {
		verdict = cond(s.lookup(p, key))
		return verdict == protocol.StatusStored
	})
	if verdict != protocol.StatusStored {
		return verdict // refused at the swap: the key changed under the store call
	}
	return st
}

// Add stores the value only if the key does not already exist.
func (s *Store) Add(p *sim.Proc, key string, valueSize int, value any, flags, expire uint32) protocol.Status {
	return s.setWhen(p, key, valueSize, value, flags, expire, func(it *hybridslab.Item) protocol.Status {
		if it != nil {
			return protocol.StatusNotStored
		}
		return protocol.StatusStored
	})
}

// Replace stores the value only if the key already exists.
func (s *Store) Replace(p *sim.Proc, key string, valueSize int, value any, flags, expire uint32) protocol.Status {
	return s.setWhen(p, key, valueSize, value, flags, expire, func(it *hybridslab.Item) protocol.Status {
		if it == nil {
			return protocol.StatusNotStored
		}
		return protocol.StatusStored
	})
}

// CompareAndSet stores the value only if the caller's CAS token matches the
// item's current token (memcached cas command).
func (s *Store) CompareAndSet(p *sim.Proc, key string, valueSize int, value any, flags, expire uint32, cas uint64) protocol.Status {
	return s.setWhen(p, key, valueSize, value, flags, expire, func(it *hybridslab.Item) protocol.Status {
		switch {
		case it == nil:
			return protocol.StatusNotFound
		case it.CAS != cas:
			return protocol.StatusExists
		}
		return protocol.StatusStored
	})
}

// still reports whether key's entry is the item a read-modify-write command
// or Touch read, unchanged since: not replaced or deleted (another item, or
// none), not mutated in place (every in-place write takes a fresh token), and
// not expired — an item that outlived its TTL meanwhile is dead even while
// its entry stands, which a rewrite of it must not revive.
func (s *Store) still(key string, it *hybridslab.Item, cas uint64) bool {
	return s.table[key] == it && it.CAS == cas && !expired(it, s.env.Now())
}

// Concatenated represents an append/prepend result: the surviving value is
// the ordered pair of payload tokens (the simulation moves tokens, not
// bytes; sizes are accounted exactly).
type Concatenated struct {
	First, Second any
}

// concat builds the combined payload and size for append/prepend.
func concat(prepend bool, old any, oldSize int, extra any, extraSize int) (any, int) {
	if prepend {
		return Concatenated{First: extra, Second: old}, oldSize + extraSize
	}
	return Concatenated{First: old, Second: extra}, oldSize + extraSize
}

// Append concatenates extra bytes after the existing value.
func (s *Store) Append(p *sim.Proc, key string, extraSize int, extra any) protocol.Status {
	return s.concatCmd(p, key, extraSize, extra, false)
}

// Prepend concatenates extra bytes before the existing value.
func (s *Store) Prepend(p *sim.Proc, key string, extraSize int, extra any) protocol.Status {
	return s.concatCmd(p, key, extraSize, extra, true)
}

// read returns key's live item with its value and CAS token as they stand
// together in one instant — where a read-modify-write starts — or nil and the
// key's answer: a miss, or a failed load's (loadFailed). The load suspends,
// and an answer given for an item replaced meanwhile (a nil value, "dropped")
// describes that item, not the key: again.
func (s *Store) read(p *sim.Proc, key string) (it *hybridslab.Item, v any, cas uint64, st protocol.Status) {
	for {
		p.Sleep(hashCost)
		if it = s.lookup(p, key); it == nil {
			return nil, nil, 0, protocol.StatusNotFound
		}
		v, err := s.mgr.Load(p, it)
		if s.table[key] != it {
			continue
		}
		if err != nil {
			if st = s.loadFailed(p, key, err); st == protocol.StatusCorrupt {
				s.CorruptReads++
			}
			return nil, nil, 0, st
		}
		return it, v, it.CAS, protocol.StatusOK
	}
}

func (s *Store) concatCmd(p *sim.Proc, key string, extraSize int, extra any, prepend bool) protocol.Status {
	for {
		// Load the current value (may reside on SSD), then store the
		// combined item through the regular slab path so it is re-classed by
		// its new size.
		it, old, cas, st := s.read(p, key)
		if st == protocol.StatusNotFound {
			return protocol.StatusNotStored
		}
		if it == nil {
			return st
		}
		newValue, newSize := concat(prepend, old, it.ValueSize, extra, extraSize)
		st = s.SetIf(p, key, newSize, newValue, it.Flags, it.ExpireAt, func() bool { return s.still(key, it, cas) })
		if st != protocol.StatusNotStored {
			return st
		}
	}
}

// counterSize is the stored size of a numeric counter (decimal ASCII in
// real memcached; fixed 20 bytes covers uint64).
const counterSize = 20

// Incr adds delta to a counter value; the value must have been stored as a
// uint64 (Counter helper). Returns the new value.
func (s *Store) Incr(p *sim.Proc, key string, delta uint64) (uint64, protocol.Status) {
	return s.arith(p, key, delta, false)
}

// Decr subtracts delta from a counter, flooring at zero as memcached does.
func (s *Store) Decr(p *sim.Proc, key string, delta uint64) (uint64, protocol.Status) {
	return s.arith(p, key, delta, true)
}

func (s *Store) arith(p *sim.Proc, key string, delta uint64, dec bool) (uint64, protocol.Status) {
	for {
		it, v, cas, st := s.read(p, key)
		if it == nil {
			return 0, st
		}
		cur, ok := v.(uint64)
		if !ok {
			return 0, protocol.StatusBadValue
		}
		var next uint64
		if dec {
			if delta > cur {
				next = 0
			} else {
				next = cur - delta
			}
		} else {
			next = cur + delta
		}
		if !it.InPlace() {
			// The authoritative copy lives in an SSD extent, or is on its way
			// into one; rewrite through the regular store path so the new
			// value lands somewhere live, with the item's flags and expiry.
			switch st := s.SetIf(p, key, counterSize, next, it.Flags, it.ExpireAt, func() bool { return s.still(key, it, cas) }); st {
			case protocol.StatusStored:
				return next, protocol.StatusOK
			case protocol.StatusNotStored:
				continue
			default:
				return 0, st
			}
		}
		// RAM-resident counters mutate in place: same class, no reallocation.
		s.publishBegin(key)
		p.Sleep(updateCost)
		if !s.still(key, it, cas) || !it.InPlace() {
			// Replaced under the update — or staged for eviction under it:
			// the flush lands what it captured, not what is written here.
			s.republish(key)
			continue
		}
		it.Value = next
		s.cas++
		it.CAS = s.cas
		s.mgr.Touch(it)
		s.publish(it)
		return next, protocol.StatusOK
	}
}

// FlushAll invalidates every item (the memcached flush_all command),
// releasing all slab and SSD space. The sweep cost is proportional to the
// item count.
func (s *Store) FlushAll(p *sim.Proc) protocol.Status {
	n := len(s.table)
	if n > 0 {
		p.Sleep(sim.Time(n) * crawlItemCost)
	}
	// Release in sorted key order: map iteration order is random per run
	// and the SSD free-pool state is order-sensitive, which would break
	// the simulation's determinism guarantee.
	keys := make([]string, 0, n)
	for key := range s.table {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		s.mgr.Release(s.table[key])
		delete(s.table, key)
		s.unpublish(key)
	}
	s.Flushes++
	return protocol.StatusOK
}

// Touch updates the expiration time without fetching the value.
func (s *Store) Touch(p *sim.Proc, key string, expire uint32) protocol.Status {
	for {
		p.Sleep(hashCost)
		it := s.lookup(p, key)
		if it == nil {
			return protocol.StatusNotFound
		}
		cas := it.CAS
		s.publishBegin(key)
		p.Sleep(updateCost)
		if !s.still(key, it, cas) {
			// Replaced, mutated or expired under the update: neither put a
			// released item over the live one's slot nor lease a dead one anew.
			s.republish(key)
			continue
		}
		it.ExpireAt = ExpireAt(s.env.Now(), expire)
		s.mgr.Touch(it)
		s.publish(it)
		return protocol.StatusOK
	}
}
