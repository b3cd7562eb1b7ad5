// Package keytab is the one per-key table of the store, the replicator and
// the client: an open-addressed hash table from string keys to values, probed
// by the 64-bit FNV-1a hash each key carries beside it (protocol.Key), so a
// key is hashed once per operation however many tables it touches.
//
// It is pagecache's pageTable idiom made generic: a power-of-two slot array
// at most half full, linear probing from a Fibonacci-hashed home slot, and
// backward-shift deletion, so there are no tombstones and a lookup stops at
// the first empty slot. A slot holds the key, its hash and its value
// together, so a probe that hits reads one slot and nothing else: the hash is
// compared first, and the key's string only where the hashes match (equal
// keys share their bytes, which the string compare sees at once). Ranging
// over a table walks the slots in order, which is decided by the sequence of
// puts and deletes alone: deterministic, unlike a map's.
package keytab

import (
	"iter"

	"hybridkv/internal/protocol"
)

// Table maps keys to values of type V. The zero Table is empty and ready to
// use. A Table is not safe for concurrent use, and must not be changed while
// a range over All is running. The zero protocol.Key (hash 0, empty string)
// marks an empty slot and is never a key: FNV1a("") is not 0.
type Table[V any] struct {
	slots []slot[V] // length a power of two, or nil
	n     int
	shift uint // 64 - log2(len(slots)): a multiplied hash's top bits are its home
}

type slot[V any] struct {
	key protocol.Key
	val V
}

func (s *slot[V]) empty() bool { return s.key.Hash == 0 && len(s.key.Str) == 0 }

// minSlots is the smallest slot array, a new table's first.
const minSlots = 16

// home is the first probe slot of hash h.
func (t *Table[V]) home(h uint64) int { return int(h * 0x9E3779B97F4A7C15 >> t.shift) }

// Len returns the number of keys.
func (t *Table[V]) Len() int { return t.n }

// find returns the slot holding k, or -1.
func (t *Table[V]) find(k protocol.Key) int {
	if t.n == 0 {
		return -1
	}
	mask := len(t.slots) - 1
	for i := t.home(k.Hash); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.key.Hash == k.Hash && s.key.Str == k.Str {
			return i
		}
		if s.empty() {
			return -1
		}
	}
}

// Get returns k's value, and whether k is in the table. It is find's probe
// written out again: the lookup every operation makes several of returns the
// slot's value straight from the probe.
func (t *Table[V]) Get(k protocol.Key) (v V, ok bool) {
	if t.n == 0 {
		return v, false
	}
	mask := len(t.slots) - 1
	for i := t.home(k.Hash); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.key.Hash == k.Hash && s.key.Str == k.Str {
			return s.val, true
		}
		if s.empty() {
			return v, false
		}
	}
}

// Put sets k's value, adding k if it is not in the table.
func (t *Table[V]) Put(k protocol.Key, v V) {
	if k == (protocol.Key{}) {
		panic("keytab: the zero key marks an empty slot")
	}
	if i := t.find(k); i >= 0 {
		t.slots[i].val = v
		return
	}
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	t.place(slot[V]{k, v})
	t.n++
}

// grow doubles the slot array (or makes the first) and re-places every key.
func (t *Table[V]) grow() {
	old := t.slots
	size := max(2*len(old), minSlots)
	t.slots = make([]slot[V], size)
	t.shift = 64
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
	for i := range old {
		if !old[i].empty() {
			t.place(old[i])
		}
	}
}

// place puts s in the first empty slot of its key's probe run.
func (t *Table[V]) place(s slot[V]) {
	mask := len(t.slots) - 1
	i := t.home(s.key.Hash)
	for !t.slots[i].empty() {
		i = (i + 1) & mask
	}
	t.slots[i] = s
}

// Delete removes k, and reports whether it was in the table. Each later slot
// of the probe run whose home does not lie cyclically in (hole, its slot]
// moves back into the hole, which moves on to where it was.
func (t *Table[V]) Delete(k protocol.Key) bool {
	hole := t.find(k)
	if hole < 0 {
		return false
	}
	mask := len(t.slots) - 1
	for j := (hole + 1) & mask; !t.slots[j].empty(); j = (j + 1) & mask {
		if h := t.home(t.slots[j].key.Hash); (j-h)&mask >= (j-hole)&mask {
			t.slots[hole] = t.slots[j]
			hole = j
		}
	}
	t.slots[hole] = slot[V]{}
	t.n--
	return true
}

// Clear removes every key, keeping the slot array.
func (t *Table[V]) Clear() {
	clear(t.slots)
	t.n = 0
}

// All ranges over the keys and their values in slot order.
func (t *Table[V]) All() iter.Seq2[protocol.Key, V] {
	return func(yield func(protocol.Key, V) bool) {
		for i := range t.slots {
			if s := &t.slots[i]; !s.empty() && !yield(s.key, s.val) {
				return
			}
		}
	}
}
