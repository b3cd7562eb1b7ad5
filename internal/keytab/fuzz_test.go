package keytab

import (
	"fmt"
	"testing"

	"hybridkv/internal/protocol"
)

// fuzzKeys is FuzzTable's key universe, both kinds a table holds. The string
// keys take one of two hashes from collidingHashes, so their probe runs pile
// up at a small array's end, wrap, and are told apart by the string alone.
// The hash-only keys take Mix64 of small integers, and one of them shares a
// string key's hash, which only its empty string tells apart.
func fuzzKeys() []protocol.Key {
	hs := collidingHashes(6)
	keys := make([]protocol.Key, 0, 16)
	for i, h := range hs {
		keys = append(keys, protocol.Key{Hash: h, Str: fmt.Sprintf("key:%d", i)})
	}
	keys = append(keys, protocol.KeyOf("fnv"), protocol.Key{Hash: hs[0]})
	for i := uint64(1); len(keys) < 16; i++ {
		keys = append(keys, protocol.Key{Hash: protocol.Mix64(i)})
	}
	return keys
}

// FuzzTable decodes bytes into Put, Delete, Get, Reserve and Clear steps over
// fuzzKeys and checks the table against a map after every step: the same
// keys and values, each reachable from its home with no hole on the way
// (audit), a Delete's and a Get's answer the map's, and a Reserve(n) that
// leaves at least 2n slots, a power of two, and never fewer than before. The
// seeds run under plain `go test`; `make fuzz` runs it for a fixed time.
func FuzzTable(f *testing.F) {
	f.Add([]byte{0x00, 0x21, 0x42, 0x63, 0x84, 0xa5, 0xc6, 0xe7})
	f.Add([]byte{0x80, 0x08, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x0f, 0x26, 0x27, 0x48, 0xe0, 0x00, 0x0e})
	f.Add([]byte{0x06, 0x07, 0x0f, 0x26, 0x46, 0x67, 0xc0, 0x06, 0x2f, 0x07})
	keys := fuzzKeys()
	eq := func(a, b int) bool { return a == b }
	f.Fuzz(func(t *testing.T, data []byte) {
		var tbl Table[int]
		model := map[protocol.Key]int{}
		for step := 0; step < len(data); step++ {
			b := data[step]
			k := keys[b&15]
			switch op := b >> 4; {
			case op < 6:
				tbl.Put(k, step)
				model[k] = step
			case op < 10:
				_, had := model[k]
				if tbl.Delete(k) != had {
					t.Fatalf("step %d: Delete(%+v) = %v, the map had it: %v", step, k, !had, had)
				}
				delete(model, k)
			case op < 14:
				v, ok := tbl.Get(k)
				if want, had := model[k]; ok != had || v != want {
					t.Fatalf("step %d: Get(%+v) = %d, %v; the map has %d, %v", step, k, v, ok, want, had)
				}
			case op == 14 && step+1 < len(data):
				step++
				n, before := 4*int(data[step]), len(tbl.slots)
				tbl.Reserve(n)
				if size := len(tbl.slots); size < 2*n || size&(size-1) != 0 || size < before {
					t.Fatalf("step %d: Reserve(%d) left %d slots, from %d", step, n, size, before)
				}
			default:
				tbl.Clear()
				clear(model)
			}
			if _, err := tbl.audit(model, eq); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	})
}
