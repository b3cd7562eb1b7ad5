package replication

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
)

// fullScanSharedKeys is sortedSharedKeys as it was while the records were one
// table: every key of the table, filtered by its own hash's bucket, then
// sorted. It reads every bucket's table whatever the buckets asked for, and
// buckets each key by its hash rather than by the table it sits in, so a walk
// that skips a bucket's table, or a key filed in the wrong one, disagrees
// with it.
func (r *Replicator) fullScanSharedKeys(pid int, buckets []uint64) []string {
	var in [scrubBuckets]bool
	for _, b := range buckets {
		if b < uint64(len(in)) {
			in[b] = true
		}
	}
	var keys []string
	for b := range r.keys {
		for k, ks := range r.keys[b].All() {
			if ks.confirmed() && in[HashKey(k)%uint64(len(in))] && r.sharedWith(pid, k) {
				keys = append(keys, k.Str)
			}
		}
	}
	slices.Sort(keys)
	return keys
}

// TestSortedSharedKeysMatchesFullScan drives one replicator's records through
// seeded random writes of confirmed, suspect and empty records, drops and
// whole-node wipes, on a stable membership and then in the middle of a join,
// where a key's peers are the union of two rings'. After each step it asks
// sortedSharedKeys for a random peer and a random bucket list — empty, with
// duplicates, with indices past the last bucket — and holds the answer to the
// full scan's.
func TestSortedSharedKeysMatchesFullScan(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	mem := NewMembership(env, 2, []int{0, 1, 2, 3})
	r := &Replicator{env: env, cfg: Config{ID: 1}, mem: mem}
	keys := make([]protocol.Key, 400)
	for i := range keys {
		keys[i] = protocol.KeyOf(fmt.Sprintf("walk:%03d", i))
	}
	rng := rand.New(rand.NewSource(63))
	asked, answered := 0, 0
	for step := 0; step < 6000; step++ {
		if step == 3000 {
			mem.BeginJoin(4) // never sealed: every later step is mid-migration
		}
		k := keys[rng.Intn(len(keys))]
		switch op := rng.Intn(100); {
		case op < 75:
			epoch := uint64(rng.Intn(4)) << 8 // 0: a record that claims nothing
			r.setState(k, r.state(k), epoch, rng.Intn(5) == 0, rng.Uint64())
		case op < 99:
			r.dropState(k)
		case rng.Intn(4) == 0:
			r.Wipe()
		}
		buckets := make([]uint64, rng.Intn(6))
		for i := range buckets {
			buckets[i] = uint64(rng.Intn(scrubBuckets + 8))
		}
		if len(buckets) > 1 && rng.Intn(3) == 0 {
			buckets = append(buckets, buckets[0])
		}
		pid := rng.Intn(5)
		want := r.fullScanSharedKeys(pid, buckets)
		got := r.sortedSharedKeys(pid, buckets)
		gotStr := make([]string, len(got))
		for i, k := range got {
			gotStr[i] = k.Str
		}
		r.doneKeys()
		if !slices.Equal(gotStr, want) {
			t.Fatalf("step %d: sortedSharedKeys(%d, %v) = %v, the full scan %v", step, pid, buckets, gotStr, want)
		}
		asked++
		if len(want) > 0 {
			answered++
		}
	}
	if answered < asked/4 {
		t.Errorf("%d of %d questions had a non-empty answer: the walk was barely exercised", answered, asked)
	}
}
