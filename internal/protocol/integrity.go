package protocol

import "fmt"

// Garbled wraps a value whose bits were corrupted somewhere between the
// writer and the reader — on rotting media served without verification, or
// in a frame corrupted in flight. The simulation moves ownership tokens
// rather than bytes, so "flipped bits" are modeled by this wrapper: any
// consumer that type-asserts the original value fails, and ValueSum over a
// Garbled value differs from the sum over the original, which is exactly
// what the corruption oracle and the content-aware scrub key on.
type Garbled struct {
	Inner any
}

// ValueSum is the content checksum of a stored value: a deterministic hash
// of the value's bytes at this fidelity. Two replicas holding the same key
// at the same epoch but different bytes produce different sums — the
// divergence signal the scrub digest folds in. Garbled values deliberately
// sum differently from their originals.
func ValueSum(v any) uint64 {
	// garbleMark separates a corrupted value's sum from its original's
	// without simulating actual bit flips.
	const garbleMark = 0x9e3779b97f4a7c15
	switch x := v.(type) {
	case nil:
		return 0
	case Garbled:
		return ValueSum(x.Inner)*prime64 ^ garbleMark
	case uint64:
		h := uint64(offset64)
		for i := 0; i < 8; i++ {
			h = (h ^ (x >> (8 * i) & 0xff)) * prime64
		}
		return h
	case string:
		h := uint64(offset64)
		for i := 0; i < len(x); i++ {
			h = (h ^ uint64(x[i])) * prime64
		}
		return h
	case []byte:
		return fnv1a(x)
	default:
		// Any other value sums as its printed form; the text is built in a
		// stack buffer, so summing a small struct allocates nothing.
		var buf [64]byte
		return fnv1a(fmt.Appendf(buf[:0], "%T:%v", v, v))
	}
}

// FNV-1a, 64 bit.
const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

func fnv1a(b []byte) uint64 {
	h := uint64(offset64)
	for _, c := range b {
		h = (h ^ uint64(c)) * prime64
	}
	return h
}
