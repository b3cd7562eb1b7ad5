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
		return FNV1a(x)
	case []byte:
		return FNV1a(x)
	default:
		// Any other value sums as its printed form; the text is built in a
		// stack buffer, so summing a small struct allocates nothing.
		var buf [64]byte
		return FNV1a(fmt.Appendf(buf[:0], "%T:%v", v, v))
	}
}

// FNV-1a, 64 bit.
const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// FNV1a is the 64-bit FNV-1a hash of a string or a byte slice: the one loop
// behind the directory's key digest, the SSD page header's key digests, the
// content checksum and the ring's key hash.
func FNV1a[T ~string | ~[]byte](b T) uint64 {
	h := uint64(offset64)
	for i := 0; i < len(b); i++ {
		h = (h ^ uint64(b[i])) * prime64
	}
	return h
}

// Mix64 is the splitmix64 finalizer, a bijection that decorrelates
// structured inputs: the one mixer behind the ring's key hash and scrub
// digest, the zipf key scramble, and the seeded bit-rot and in-flight
// corruption verdicts.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Chance maps a hash to [0, 1) by its top 53 bits: a seeded verdict drawn
// from a hash instead of an RNG stream (h's chance < rate means "yes").
func Chance(h uint64) float64 { return float64(h>>11) / float64(1<<53) }
