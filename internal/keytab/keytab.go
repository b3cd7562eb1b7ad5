// Package keytab is the program's one open-addressed hash table: the per-key
// table of the store, the replicator and the client. A power-of-two slot array at most half full,
// linear probing from a Fibonacci-hashed home slot, and backward-shift
// deletion, so there are no tombstones and a lookup stops at the first empty
// slot. A slot holds the key, its hash and its value together, so a probe
// that hits reads one slot and nothing else: the hash is compared first, and
// the key's string only where the hashes match. Ranging over a table walks the
// slots in order, decided by the slot array's size and the sequence of puts
// and deletes alone: deterministic, unlike a map's.
//
// A key is a protocol.Key, probed by the 64-bit hash it carries, so a key is
// hashed once per operation however many tables it touches. A string key
// carries FNV-1a of its string (protocol.KeyOf). A hash-only key has an empty
// string, so its hash alone names it: its maker gives distinct keys distinct,
// non-zero hashes (the zero Key marks an empty slot).
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

func (s *slot[V]) empty() bool { return s.key == protocol.Key{} }

// minSlots is the smallest slot array, a new table's first.
const minSlots = 16

// home is the first probe slot of hash h.
func (t *Table[V]) home(h uint64) int { return int(h * 0x9E3779B97F4A7C15 >> t.shift) }

// Len returns the number of keys.
func (t *Table[V]) Len() int { return t.n }

// probe returns the slot holding k and true, or the empty slot that ends k's
// probe run, where k goes, and false. The slot array must not be nil. An
// empty slot ends the run before it is compared, so the zero key, which
// marks one, is never found.
func (t *Table[V]) probe(k protocol.Key) (int, bool) {
	mask := len(t.slots) - 1
	for i := t.home(k.Hash); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.empty() {
			return i, false
		}
		if s.key == k {
			return i, true
		}
	}
}

// Get returns k's value, and whether k is in the table. It is probe's loop
// written out again: the lookup every operation makes several of returns the
// slot's value straight from the probe.
func (t *Table[V]) Get(k protocol.Key) (v V, ok bool) {
	if t.n == 0 {
		return
	}
	mask := len(t.slots) - 1
	for i := t.home(k.Hash); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.empty() {
			return
		}
		if s.key == k {
			return s.val, true
		}
	}
}

// Put sets k's value, adding k if it is not in the table. One probe finds
// the key or the empty slot it goes in; only a growth probes again.
func (t *Table[V]) Put(k protocol.Key, v V) {
	if k == (protocol.Key{}) {
		panic("keytab: the zero key marks an empty slot")
	}
	if t.slots == nil {
		t.resize(minSlots)
	}
	i, ok := t.probe(k)
	if ok {
		t.slots[i].val = v
		return
	}
	if 2*(t.n+1) > len(t.slots) {
		t.resize(2 * len(t.slots))
		i, _ = t.probe(k)
	}
	t.slots[i] = slot[V]{k, v}
	t.n++
}

// Reserve sizes the slot array for n keys in one allocation, unless it is
// that large already, so that the table does not grow until it holds more
// than n.
func (t *Table[V]) Reserve(n int) {
	size := minSlots
	for size < 2*n {
		size *= 2
	}
	if size > len(t.slots) {
		t.resize(size)
	}
}

// resize makes a slot array of size slots, a power of two, and re-places
// every key.
func (t *Table[V]) resize(size int) {
	old := t.slots
	t.slots = make([]slot[V], size)
	t.shift = 64
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
	for i := range old {
		if !old[i].empty() {
			j, _ := t.probe(old[i].key)
			t.slots[j] = old[i]
		}
	}
}

// Delete removes k, and reports whether it was in the table. Each later slot
// of the probe run whose home does not lie cyclically in (hole, its slot]
// moves back into the hole, which moves on to where it was.
func (t *Table[V]) Delete(k protocol.Key) bool {
	if t.n == 0 {
		return false
	}
	hole, ok := t.probe(k)
	if !ok {
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
