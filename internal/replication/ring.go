// Package replication implements synchronous primary–backup replication
// with anti-entropy repair for the hybrid key-value store: the consistent-
// hash ring maps each key to a primary plus R−1 backups, servers forward
// admitted writes along the chain with per-key version epochs before acking,
// and a background scrubber walks per-server epoch digests to reconcile
// divergence after partitions heal. The package is wired by
// cluster.Config.ReplicationFactor; with R ≤ 1 nothing here is constructed
// and every hot path is byte- and virtual-time-identical to the
// unreplicated system.
package replication

import (
	"crypto/md5"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"hybridkv/internal/protocol"
)

// Ring is a ketama-style consistent-hash ring distributing keys across
// server ids: each server contributes vnodesPerServer virtual points; a key
// maps to the first point clockwise from its hash, and its replica set is
// the first N distinct servers clockwise. Consistent hashing keeps most
// keys (and replica sets) in place when the server pool changes, matching
// libmemcached's MEMCACHED_DISTRIBUTION_CONSISTENT_KETAMA. The client
// runtime and every server replicator build their rings with the same Add
// sequence, so all parties agree on each key's replica set.
type Ring struct {
	points []ringPoint
	dirty  bool
	// memo[i] is the replica walk from sorted point i, as far as any caller
	// has asked for it; servers is the number of distinct ids on the ring
	// (the longest a walk can get). Add and Remove drop both.
	memo    [][]int
	servers int
}

type ringPoint struct {
	hash     uint64
	serverID int
}

// Real ketama derives 4 ring points from each of 40 MD5 digests per server,
// i.e. 160 points; we take two 64-bit points per digest over 80 digests.
const digestsPerServer = 80

// NewRing returns an empty ring.
func NewRing() *Ring { return &Ring{} }

// HashKey places a key on the ring's 64-bit space: its carried FNV-1a hash,
// finished with protocol.Mix64, which decorrelates the structured key strings
// that make raw FNV cluster on a ring.
func HashKey(k protocol.Key) uint64 { return protocol.Mix64(k.Hash) }

// Add inserts a server's virtual nodes.
func (r *Ring) Add(serverID int) {
	for v := 0; v < digestsPerServer; v++ {
		d := md5.Sum([]byte(fmt.Sprintf("server-%d-%d", serverID, v)))
		h1 := binary.LittleEndian.Uint64(d[0:8])
		h2 := binary.LittleEndian.Uint64(d[8:16])
		r.points = append(r.points,
			ringPoint{hash: h1, serverID: serverID},
			ringPoint{hash: h2, serverID: serverID})
	}
	r.dirty = true
	r.memo = nil
}

// Clone returns an independent copy of the ring. Membership transitions
// clone the current ring and Add/Remove on the copy, so the previous
// epoch's ring stays intact for the double-read window.
func (r *Ring) Clone() *Ring {
	return &Ring{points: append([]ringPoint(nil), r.points...), dirty: r.dirty}
}

// Members returns the distinct server ids on the ring, sorted ascending.
func (r *Ring) Members() []int {
	out := make([]int, len(r.points))
	for i, pt := range r.points {
		out[i] = pt.serverID
	}
	sort.Ints(out)
	return slices.Compact(out)
}

// Remove drops a server's virtual nodes.
func (r *Ring) Remove(serverID int) {
	out := r.points[:0]
	for _, pt := range r.points {
		if pt.serverID != serverID {
			out = append(out, pt)
		}
	}
	r.points = out
	r.dirty = true
	r.memo = nil
}

func (r *Ring) sortPoints() {
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	r.dirty = false
}

func (r *Ring) search(k protocol.Key) int {
	if len(r.points) == 0 {
		panic("replication: empty hash ring")
	}
	if r.dirty {
		r.sortPoints()
	}
	h := HashKey(k)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Pick returns the server id owning key (the key's primary).
func (r *Ring) Pick(k protocol.Key) int {
	return r.points[r.search(k)].serverID
}

// Replicas returns the key's replica set: the first n distinct server ids
// clockwise from the key's hash, primary first. Fewer than n distinct
// servers on the ring shortens the set. The set is memoised per ring point
// and shared between calls: callers must not modify it (appending is safe —
// its capacity is its length, so append copies).
func (r *Ring) Replicas(k protocol.Key, n int) []int {
	start := r.search(k)
	if r.memo == nil {
		r.memo = make([][]int, len(r.points))
		r.servers = len(r.Members())
	}
	n = min(n, r.servers)
	set := r.memo[start]
	if len(set) < n {
		set = r.walk(start, n)
		r.memo[start] = set
	}
	return set[:n:n]
}

// walk collects the first n distinct server ids clockwise from point start.
func (r *Ring) walk(start, n int) []int {
	set := make([]int, 0, n)
	for i := 0; i < len(r.points) && len(set) < n; i++ {
		id := r.points[(start+i)%len(r.points)].serverID
		if !containsID(set, id) {
			set = append(set, id)
		}
	}
	return set
}
