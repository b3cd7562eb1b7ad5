package replication

import (
	"testing"

	"hybridkv/internal/protocol"
)

// modInverse64 computes the multiplicative inverse of an odd v mod 2^64 by
// Newton iteration (each step doubles the correct low bits).
func modInverse64(v uint64) uint64 {
	inv := v
	for i := 0; i < 6; i++ {
		inv *= 2 - v*inv
	}
	return inv
}

// unshiftRight inverts x ^= x >> s.
func unshiftRight(y uint64, s uint) uint64 {
	x := y
	for i := 0; i < 8; i++ {
		x = y ^ (x >> s)
	}
	return x
}

// mix64Inverse inverts protocol.Mix64 step by step — the finalizer is a
// bijection, which is exactly why a single XOR-folded digest is attackable:
// any target fold value can be solved for.
func mix64Inverse(y uint64) uint64 {
	x := unshiftRight(y, 31)
	x *= modInverse64(0x94d049bb133111eb)
	x = unshiftRight(x, 27)
	x *= modInverse64(0xbf58476d1ce4e5b9)
	x = unshiftRight(x, 30)
	return x
}

// Satellite hardening proof: construct two DIFFERENT key/epoch records whose
// digestEntry values are equal — under the original single-fold XOR digest
// they would cancel in a shared bucket, masking real divergence as
// convergence. The second, independently-built fold (digestEntry2) must
// still tell them apart, which is why buckets now carry both.
func TestDigestCollisionPairCaughtBySecondFold(t *testing.T) {
	if protocol.Mix64(mix64Inverse(0xdeadbeefcafef00d)) != 0xdeadbeefcafef00d {
		t.Fatal("mix64Inverse is not the inverse of protocol.Mix64; the construction below is void")
	}
	const (
		k1, k2 = "k-000017", "k-000042"
		epoch1 = uint64(0x300) | 2 // some coordinator-2 epoch
		sum    = uint64(7)         // same content sum on both records
	)
	// digestEntry = Mix64(HashKey(k) ^ Mix64(epoch) ^ Mix64(sum·φ+1)).
	// Equal sums cancel; solve for the epoch2 that makes the Mix64 inputs —
	// hence the outputs — equal:
	//   Mix64(epoch2) = Mix64(epoch1) ^ HashKey(k1) ^ HashKey(k2)
	epoch2 := mix64Inverse(protocol.Mix64(epoch1) ^ HashKey(k1) ^ HashKey(k2))

	d1 := digestEntry(k1, epoch1, sum)
	d2 := digestEntry(k2, epoch2, sum)
	if d1 != d2 {
		t.Fatalf("constructed pair does not collide under digestEntry: %#x vs %#x", d1, d2)
	}
	if d1^d2 != 0 {
		t.Fatal("colliding pair does not cancel under XOR fold") // by construction
	}
	// The whole point: the alternate fold, built from a different key hash
	// and different mixing constants, refuses to collide on the same pair.
	a1 := digestEntry2(k1, epoch1, sum)
	a2 := digestEntry2(k2, epoch2, sum)
	if a1 == a2 {
		t.Fatalf("second fold also collides (%#x): the paired digest adds nothing", a1)
	}
}

// winsSameEpoch is the same-epoch/different-bytes tiebreak: the epoch's
// coordinator (recoverable from the low byte) always keeps its copy, and
// between two non-coordinators the lower id wins — a deterministic total
// order, so two diverged replicas can never both think they win (which
// would oscillate pushes forever).
func TestWinsSameEpochTotalOrder(t *testing.T) {
	epoch := uint64(0x500) | 2 // coordinator id 2
	cases := []struct {
		sender, me int
		want       bool
	}{
		{2, 0, true},  // sender is the coordinator: wins
		{2, 4, true},  //   …regardless of the other id
		{0, 2, false}, // I am the coordinator: sender loses
		{4, 2, false},
		{1, 3, true}, // neither is coordinator: lower id wins
		{3, 1, false},
	}
	for _, tc := range cases {
		if got := winsSameEpoch(tc.sender, tc.me, epoch); got != tc.want {
			t.Errorf("winsSameEpoch(%d, %d, %#x) = %v, want %v", tc.sender, tc.me, epoch, got, tc.want)
		}
	}
	// Antisymmetry over all pairs: exactly one side wins.
	for a := 0; a < 5; a++ {
		for b := 0; b < 5; b++ {
			if a == b {
				continue
			}
			if winsSameEpoch(a, b, epoch) == winsSameEpoch(b, a, epoch) {
				t.Errorf("ids %d and %d both %v at epoch %#x — divergence would oscillate",
					a, b, winsSameEpoch(a, b, epoch), epoch)
			}
		}
	}
}
