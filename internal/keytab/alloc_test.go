package keytab

import (
	"fmt"
	"testing"

	"hybridkv/internal/protocol"
)

// grownModel returns a step that makes one op on a table grown to 4096 keys
// — the store's and a replicator's size in the benchmark — cycling through
// them: a Get of a key it holds, a Put that replaces a key's value, or a
// Delete and the Put that brings the key back.
func grownModel(op string) func(testing.TB) (step func()) {
	return func(testing.TB) (step func()) {
		keys := make([]protocol.Key, 4096)
		var t Table[*int]
		for i := range keys {
			keys[i] = protocol.KeyOf(fmt.Sprintf("alloc:%04d", i))
			t.Put(keys[i], new(int))
		}
		v, i := new(int), 0
		return func() {
			k := keys[i%len(keys)]
			i++
			switch op {
			case "get":
				if _, ok := t.Get(k); !ok {
					panic("grownModel: a key the table holds is missing")
				}
			case "put":
				t.Put(k, v)
			case "delete":
				t.Delete(k)
				t.Put(k, v)
			}
		}
	}
}

// reservedModel returns a step that clears a table Reserve sized for 4096
// keys and puts 4096 keys into it; it panics if the table grew. The array is
// the one Reserve made, so a table sized before a fill allocates nothing
// while it fills.
func reservedModel(testing.TB) (step func()) {
	keys := make([]protocol.Key, 4096)
	for i := range keys {
		keys[i] = protocol.KeyOf(fmt.Sprintf("alloc:%04d", i))
	}
	var t Table[*int]
	t.Reserve(len(keys))
	size, v := len(t.slots), new(int)
	return func() {
		t.Clear()
		for _, k := range keys {
			t.Put(k, v)
		}
		if len(t.slots) != size {
			panic("reservedModel: the table grew past what Reserve sized")
		}
	}
}

// allocTable is the key table's line of make allocs: a grown table's Get,
// Put and Delete allocate nothing — its slots hold the keys and values, and
// only growing past half full makes a new array — and neither does filling
// a table Reserve sized.
var allocTable = []struct {
	name    string
	model   func(testing.TB) (step func())
	ceiling float64
}{
	{"Get", grownModel("get"), 0},
	{"Put", grownModel("put"), 0},
	{"DeletePut", grownModel("delete"), 0},
	{"ReservedPuts", reservedModel, 0},
}

// TestKeyTabAllocationCeilings logs each row's name=count for make allocs.
func TestKeyTabAllocationCeilings(t *testing.T) {
	for _, row := range allocTable {
		t.Run(row.name, func(t *testing.T) {
			step := row.model(t)
			step() // warm
			got := testing.AllocsPerRun(1000, step)
			if t.Logf("%s=%v", row.name, got); got > row.ceiling {
				t.Errorf("%s=%v, ceiling %v", row.name, got, row.ceiling)
			}
		})
	}
}

// BenchmarkAllocs runs allocTable's rows as sub-benchmarks.
func BenchmarkAllocs(b *testing.B) {
	for _, row := range allocTable {
		b.Run(row.name, func(b *testing.B) {
			step := row.model(b)
			step()
			b.ReportAllocs()
			for b.Loop() {
				step()
			}
		})
	}
}
