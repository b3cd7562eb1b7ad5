package replication

// Test-only hooks for the same-epoch content-divergence repair path. The
// scrub's content fold exists to catch *silent* corruption — an applied
// value whose bytes changed without an epoch advance — which no public
// operation can produce (the write path checksums frames and the store
// path verifies media). Tests reach in here to create exactly that state.

// SilentlyCorruptForTest models silent in-RAM corruption of an applied
// value: the key's recorded content sum is overwritten while its epoch,
// tombstone, and suspect state stand, and the scrubber is kicked as if a
// periodic round were due. Returns false if the key has no confirmed live
// record here (nothing to corrupt).
func (r *Replicator) SilentlyCorruptForTest(key string, sum uint64) bool {
	ks := r.keys[key]
	if ks == nil || ks.epoch == 0 || ks.del || ks.suspect {
		return false
	}
	r.setState(key, ks, ks.epoch, ks.del, ks.suspect, sum)
	r.kick()
	return true
}

// AppliedStateForTest exposes a key's confirmed (epoch, content-sum)
// record for convergence assertions.
func (r *Replicator) AppliedStateForTest(key string) (epoch, sum uint64, ok bool) {
	ks := r.keys[key]
	if ks == nil || ks.epoch == 0 {
		return 0, 0, false
	}
	return ks.epoch, ks.sum, true
}

// OpenForwardsForTest reports how many write rounds are still registered:
// zero on a quiescent replicator.
func (r *Replicator) OpenForwardsForTest() int { return len(r.fwds) }

// StaleDigestsForTest compares every digest this replicator maintains with a
// from-scratch fold over its key table, and names the peers whose maintained
// digest has drifted. maintained reports how many peers had one to compare.
func (r *Replicator) StaleDigestsForTest() (stale []int, maintained int) {
	for _, pid := range r.peerIDs {
		kept := r.peers[pid].digest
		if kept == nil || r.placementNow() != r.digestsAt {
			continue // recomputed on next use: nothing maintained to drift
		}
		maintained++
		for i, v := range r.computeDigest(pid) {
			if kept[i] != v {
				stale = append(stale, pid)
				break
			}
		}
	}
	return stale, maintained
}
