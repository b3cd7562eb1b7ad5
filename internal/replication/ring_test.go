package replication

import (
	"fmt"
	"slices"
	"testing"
)

// The memoised replica sets must be exactly the uncached walk — for every n
// in any order, past the number of servers, across Add, Remove and Clone —
// and a caller appending to a returned set must not reach into the memo.
func TestRingReplicasMemoMatchesTheWalk(t *testing.T) {
	ring := NewRing()
	keys := make([]string, 200)
	for i := range keys {
		keys[i] = fmt.Sprintf("memo:%04d", i)
	}
	check := func(r *Ring, when string) {
		t.Helper()
		for _, n := range []int{2, 1, 3, 9, 0, 3} {
			for _, key := range keys {
				got := r.Replicas(key, n)
				want := r.walk(r.search(key), n)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: Replicas(%q, %d) = %v, the walk gives %v", when, key, n, got, want)
				}
				if grown := append(got, -1); len(got) > 0 && &grown[0] == &got[0] {
					t.Fatalf("%s: Replicas(%q, %d) has spare capacity: an append would write into the memo", when, key, n)
				}
			}
		}
	}
	for id := 0; id < 5; id++ {
		ring.Add(id)
	}
	check(ring, "five servers")
	clone := ring.Clone()
	clone.Add(7)
	check(clone, "clone plus one")
	check(ring, "original after its clone changed")
	ring.Remove(2)
	check(ring, "one removed")
	ring.Add(2)
	check(ring, "added back")
}

func TestRingReplicasDoesNotAllocate(t *testing.T) {
	ring := NewRing()
	for id := 0; id < 4; id++ {
		ring.Add(id)
	}
	keys := make([]string, 512)
	for i := range keys {
		keys[i] = fmt.Sprintf("alloc:%04d", i)
		ring.Replicas(keys[i], 3)
	}
	i := 0
	if got := testing.AllocsPerRun(1000, func() { ring.Replicas(keys[i%len(keys)], 3); i++ }); got > 0 {
		t.Errorf("Replicas on a warm ring: %v allocations, want 0", got)
	}
}

// BenchmarkRingReplicas is one replica-set lookup on a warm ring — what the
// anti-entropy digest pays per key per round, and the client per request.
func BenchmarkRingReplicas(b *testing.B) {
	ring := NewRing()
	for id := 0; id < 4; id++ {
		ring.Add(id)
	}
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench:%06d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ring.Replicas(keys[i%len(keys)], 3)
	}
}
