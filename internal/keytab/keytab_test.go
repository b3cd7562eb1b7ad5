package keytab

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"hybridkv/internal/protocol"
)

// audit checks t against model, the same keys and values: n counts the
// occupied slots, each key sits on the probe run from its home with no empty
// slot between the two (the run a lookup walks, so a deletion that left a
// hole fails here), and every model key is found. It returns how many keys
// sit wrapped past the array's end from their home.
func (t *Table[V]) audit(model map[protocol.Key]V, eq func(a, b V) bool) (wrapped int, err error) {
	mask := len(t.slots) - 1
	seen := 0
	for i := range t.slots {
		s := &t.slots[i]
		if s.empty() {
			continue
		}
		seen++
		if want, ok := model[s.key]; !ok || !eq(s.val, want) {
			return 0, fmt.Errorf("slot %d holds %q = %v, which the model does not", i, s.key.Str, s.val)
		}
		h := t.home(s.key.Hash)
		for j := h; j != i; j = (j + 1) & mask {
			if t.slots[j].empty() {
				return 0, fmt.Errorf("%q at slot %d: hole at %d on the run from its home %d", s.key.Str, i, j, h)
			}
		}
		if i < h {
			wrapped++
		}
	}
	if seen != t.n || t.n != len(model) {
		return 0, fmt.Errorf("%d keys in slots, %d counted, %d in the model", seen, t.n, len(model))
	}
	for k, want := range model {
		if got, ok := t.Get(k); !ok || !eq(got, want) {
			return 0, fmt.Errorf("Get(%q) = %v, %v; want %v", k.Str, got, ok, want)
		}
	}
	return wrapped, nil
}

// collidingHashes returns n hashes, two distinct values between them, whose
// home in a table of minSlots slots is one of its last two slots: keys given
// them pile up at the array's end, wrap past it, and match each other's hash
// on every probe, so only the string compare tells them apart.
func collidingHashes(n int) []uint64 {
	var t Table[int]
	t.resize(minSlots)
	var homes []uint64
	for h := uint64(1); len(homes) < 2; h++ {
		if t.home(h) >= minSlots-2 {
			homes = append(homes, h)
		}
	}
	hs := make([]uint64, n)
	for i := range hs {
		hs[i] = homes[i%2]
	}
	return hs
}

// TestTableMatchesMap runs seeded random puts, gets, deletes, ranges and
// clears against a map. One key set takes its hashes from collidingHashes, so
// every key shares one of two hashes, homed at the array's end: probe runs
// wrap, every lookup compares strings, and each deletion lands in the middle
// of a run. The other takes FNV-1a and grows the table through
// several doublings. After every operation the table holds exactly the
// model's keys, each reachable from its home.
func TestTableMatchesMap(t *testing.T) {
	for _, tc := range []struct {
		name string
		keys int
		hash func(i int, s string) uint64
	}{
		{"colliding", 6, func(i int, _ string) uint64 { return collidingHashes(6)[i] }},
		{"fnv", 300, func(_ int, s string) uint64 { return protocol.FNV1a(s) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			keys := make([]protocol.Key, tc.keys)
			for i := range keys {
				s := fmt.Sprintf("key:%03d", i)
				keys[i] = protocol.Key{Hash: tc.hash(i, s), Str: s}
			}
			rng := rand.New(rand.NewSource(int64(tc.keys)))
			var tbl Table[int]
			model := map[protocol.Key]int{}
			eq := func(a, b int) bool { return a == b }
			wrapped := 0
			for step := 0; step < 20000; step++ {
				k := keys[rng.Intn(len(keys))]
				switch op := rng.Intn(100); {
				case op < 45:
					tbl.Put(k, step)
					model[k] = step
				case op < 80:
					_, had := model[k]
					if tbl.Delete(k) != had {
						t.Fatalf("step %d: Delete(%q) = %v, model had it: %v", step, k.Str, !had, had)
					}
					delete(model, k)
				case op < 98:
					got := map[protocol.Key]int{}
					for k, v := range tbl.All() {
						if _, dup := got[k]; dup {
							t.Fatalf("step %d: All yields %q twice", step, k.Str)
						}
						got[k] = v
					}
					if !maps.Equal(got, model) {
						t.Fatalf("step %d: All yields %v, model %v", step, got, model)
					}
				default:
					tbl.Clear()
					clear(model)
				}
				w, err := tbl.audit(model, eq)
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				wrapped += w
			}
			if tc.name == "colliding" && wrapped == 0 {
				t.Error("no key ever sat wrapped past the array's end: the test hash does not do its job")
			}
		})
	}
}

// Reserve sizes the slot array once: at least minSlots, and the smallest
// power of two that holds n keys at most half full (the store's sizes for
// its share of the preload). n puts then leave it as it is; a Reserve for fewer keys
// than the table has room for changes nothing, and one for more keeps every
// key the table holds.
func TestReserveSizesTheSlotArrayOnce(t *testing.T) {
	for _, tc := range []struct{ n, slots int }{
		{0, minSlots},
		{8, 16},
		{9, 32},
		{32, 64},
		{32768, 65536},
	} {
		t.Run(fmt.Sprint(tc.n), func(t *testing.T) {
			var tbl Table[int]
			tbl.Reserve(tc.n)
			if len(tbl.slots) != tc.slots {
				t.Fatalf("Reserve(%d): %d slots, want %d", tc.n, len(tbl.slots), tc.slots)
			}
			model := map[protocol.Key]int{}
			for i := range tc.n {
				k := protocol.KeyOf(fmt.Sprintf("key:%05d", i))
				tbl.Put(k, i)
				model[k] = i
			}
			tbl.Reserve(tc.n / 2)
			if len(tbl.slots) != tc.slots {
				t.Fatalf("%d puts and a smaller Reserve: %d slots, want %d", tc.n, len(tbl.slots), tc.slots)
			}
			tbl.Reserve(tc.slots)
			if len(tbl.slots) != 2*tc.slots {
				t.Fatalf("Reserve(%d) on %d slots: %d slots, want %d", tc.slots, tc.slots, len(tbl.slots), 2*tc.slots)
			}
			if _, err := tbl.audit(model, func(a, b int) bool { return a == b }); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// A missing key is a miss on an empty table, a zero table included, and a
// key whose hash matches but whose string differs is not the key.
func TestTableComparesStringsOnAHashMatch(t *testing.T) {
	var tbl Table[string]
	a := protocol.Key{Hash: 7, Str: "a"}
	if _, ok := tbl.Get(a); ok || tbl.Delete(a) || tbl.Len() != 0 {
		t.Fatal("a zero table holds a key")
	}
	tbl.Put(a, "A")
	b := protocol.Key{Hash: 7, Str: "b"}
	if v, ok := tbl.Get(b); ok {
		t.Fatalf("Get(b) = %q: a hash match alone found a key", v)
	}
	tbl.Put(b, "B")
	if va, _ := tbl.Get(a); va != "A" || tbl.Len() != 2 {
		t.Fatalf("after Put(b): Get(a) = %q, Len %d", va, tbl.Len())
	}
}

// The zero key marks an empty slot, so it is never in a table: Get and Delete
// miss it however many keys the table holds, and Put refuses it.
func TestTheZeroKeyIsNeverFound(t *testing.T) {
	var tbl Table[int]
	for i := range 20 {
		tbl.Put(protocol.KeyOf(fmt.Sprint(i)), i)
	}
	if v, ok := tbl.Get(protocol.Key{}); ok {
		t.Errorf("Get(zero key) = %d, true", v)
	}
	if tbl.Delete(protocol.Key{}) || tbl.Len() != 20 {
		t.Errorf("Delete(zero key) took a key away: Len %d, want 20", tbl.Len())
	}
	defer func() {
		if recover() == nil {
			t.Error("Put(zero key) did not panic")
		}
	}()
	tbl.Put(protocol.Key{}, 0)
}

// The order All yields is a function of the operations alone: two tables
// given the same puts and deletes range alike.
func TestTableRangeOrderIsDeterministic(t *testing.T) {
	order := func() []string {
		var tbl Table[int]
		for i := 0; i < 200; i++ {
			tbl.Put(protocol.KeyOf(fmt.Sprint(i)), i)
		}
		for i := 0; i < 200; i += 3 {
			tbl.Delete(protocol.KeyOf(fmt.Sprint(i)))
		}
		var out []string
		for k := range tbl.All() {
			out = append(out, k.Str)
		}
		return out
	}
	if a, b := order(), order(); !slices.Equal(a, b) {
		t.Fatalf("two identical runs ranged %v and %v", a, b)
	}
}
