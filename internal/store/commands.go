package store

import (
	"hybridkv/internal/hybridslab"
	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
)

// This file implements the memcached commands beyond Set/Get that the
// history-checked workloads issue, on top of the hybrid slab manager: the
// conditional stores add and cas, and the counter increment incr.

// Every command below decides on what the key holds and then suspends — in
// the allocation, an eviction, a copy, the update itself — before it acts, and
// a server's storage workers run them side by side. So each asks again at the
// instant it acts: the conditional stores pass their condition to SetIf as the
// swap guard, and Incr checks that the entry it read is still the entry
// (still) and starts over on what the key holds now when it is not.
// Uncontended, nothing here costs more than it did.

// setWhen is the one conditional store behind Add and CompareAndSet:
// they differ in cond alone, which maps the key's live item (nil: none) to
// StatusStored — go ahead — or to the refusal to answer. cond is asked on
// arrival, so a refusal costs no allocation, and again at the swap: one CAS
// token buys one store, a fresh key is added once.
func (s *Store) setWhen(p *sim.Proc, k protocol.Key, valueSize int, value any, flags uint32, cond func(*hybridslab.Item) protocol.Status) protocol.Status {
	p.Sleep(hashCost)
	verdict := cond(s.item(k))
	if verdict != protocol.StatusStored {
		return verdict
	}
	st := s.SetIf(p, k, valueSize, value, flags, func() bool {
		verdict = cond(s.item(k))
		return verdict == protocol.StatusStored
	})
	if verdict != protocol.StatusStored {
		return verdict // refused at the swap: the key changed under the store call
	}
	return st
}

// Add stores the value only if the key does not already exist.
func (s *Store) Add(p *sim.Proc, key string, valueSize int, value any, flags uint32) protocol.Status {
	return s.add(p, protocol.KeyOf(key), valueSize, value, flags)
}

func (s *Store) add(p *sim.Proc, k protocol.Key, valueSize int, value any, flags uint32) protocol.Status {
	return s.setWhen(p, k, valueSize, value, flags, func(it *hybridslab.Item) protocol.Status {
		if it != nil {
			return protocol.StatusNotStored
		}
		return protocol.StatusStored
	})
}

// CompareAndSet stores the value only if the caller's CAS token matches the
// item's current token (memcached cas command).
func (s *Store) CompareAndSet(p *sim.Proc, key string, valueSize int, value any, flags uint32, cas uint64) protocol.Status {
	return s.compareAndSet(p, protocol.KeyOf(key), valueSize, value, flags, cas)
}

func (s *Store) compareAndSet(p *sim.Proc, k protocol.Key, valueSize int, value any, flags uint32, cas uint64) protocol.Status {
	return s.setWhen(p, k, valueSize, value, flags, func(it *hybridslab.Item) protocol.Status {
		switch {
		case it == nil:
			return protocol.StatusNotFound
		case it.CAS != cas:
			return protocol.StatusExists
		}
		return protocol.StatusStored
	})
}

// still reports whether key's entry is the item Incr read, unchanged since:
// not replaced or removed (another item, or none), and not mutated in place
// (every in-place write takes a fresh token).
func (s *Store) still(k protocol.Key, it *hybridslab.Item, cas uint64) bool {
	return s.item(k) == it && it.CAS == cas
}

// read returns key's live item with its value and CAS token as they stand
// together in one instant — where a read-modify-write starts — or nil and the
// key's answer: a miss, or a failed load's (loadFailed). The load suspends,
// and an answer given for an item replaced meanwhile (a nil value, "dropped")
// describes that item, not the key: again. The item comes back held, and the
// caller lets go of it once it has asked still for the last time.
func (s *Store) read(p *sim.Proc, k protocol.Key) (it *hybridslab.Item, v any, cas uint64, st protocol.Status) {
	for {
		p.Sleep(hashCost)
		if it = s.item(k); it == nil {
			return nil, nil, 0, protocol.StatusNotFound
		}
		it.Hold()
		v, err := s.mgr.Load(p, it)
		if s.item(k) != it {
			it.Unhold()
			continue
		}
		if err != nil {
			if st = s.loadFailed(p, k, err); st == protocol.StatusCorrupt {
				s.CorruptReads++
			}
			it.Unhold()
			return nil, nil, 0, st
		}
		return it, v, it.CAS, protocol.StatusOK
	}
}

// Incr adds delta to a counter value; the value must have been stored as a
// uint64 (Counter helper). Returns the new value.
func (s *Store) Incr(p *sim.Proc, key string, delta uint64) (uint64, protocol.Status) {
	return s.increment(p, protocol.KeyOf(key), delta)
}

func (s *Store) increment(p *sim.Proc, k protocol.Key, delta uint64) (uint64, protocol.Status) {
	for {
		it, v, cas, st := s.read(p, k)
		if it == nil {
			return 0, st
		}
		next, st, again := s.incr(p, k, it, v, cas, delta)
		it.Unhold()
		if !again {
			return next, st
		}
	}
}

// incr is one attempt of Incr on the item read returned, held across it:
// the answer, or again when the key changed under the attempt.
func (s *Store) incr(p *sim.Proc, k protocol.Key, it *hybridslab.Item, v any, cas, delta uint64) (next uint64, st protocol.Status, again bool) {
	cur, ok := v.(uint64)
	if !ok {
		return 0, protocol.StatusBadValue, false
	}
	next = cur + delta
	if !it.InPlace() {
		// The authoritative copy lives in an SSD extent, or is on its way
		// into one; rewrite through the regular store path so the new
		// value lands somewhere live, with the item's flags.
		switch st := s.SetIf(p, k, protocol.CounterSize, next, it.Flags, func() bool { return s.still(k, it, cas) }); st {
		case protocol.StatusStored:
			return next, protocol.StatusOK, false
		case protocol.StatusNotStored:
			return 0, 0, true
		default:
			return 0, st, false
		}
	}
	// RAM-resident counters mutate in place: same class, no reallocation.
	s.publishBegin(k)
	p.Sleep(updateCost)
	if !s.still(k, it, cas) || !it.InPlace() {
		// Replaced under the update — or staged for eviction under it:
		// the flush lands what it captured, not what is written here.
		s.republish(k)
		return 0, 0, true
	}
	it.Value = next
	s.cas++
	it.CAS = s.cas
	s.mgr.Touch(it)
	s.publish(it)
	return next, protocol.StatusOK, false
}
