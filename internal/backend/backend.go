// Package backend simulates the data store behind the Memcached caching
// layer (a database in online data processing, a parallel file system for
// burst-buffer workloads). Every access pays a fixed penalty — the paper
// assumes "less than 2 ms" per miss — which is what makes in-memory
// designs collapse when the working set outgrows RAM (Figures 1(b)/2(b)).
package backend

import (
	"hybridkv/internal/sim"
)

const (
	// Penalty is the per-access latency: the paper's miss penalty < 2 ms.
	Penalty = 1800 * sim.Microsecond
	// Concurrency bounds in-flight backend queries: a connection-pooled
	// database.
	Concurrency = 64
)

// DB is the backend store. It logically holds every key of the workload's
// keyspace: a fetch always succeeds, it is just slow.
type DB struct {
	depth *sim.Resource

	// Accesses counts backend round trips (cache misses).
	Accesses int64
	// TimeSpent accumulates total penalty time paid.
	TimeSpent sim.Time
}

// New creates a backend database.
func New(env *sim.Env) *DB {
	return &DB{depth: sim.NewResource(env, Concurrency)}
}

// Fetch retrieves the authoritative value for key, blocking p for the miss
// penalty. The returned token is the backend's value for the key.
func (db *DB) Fetch(p *sim.Proc, key string) any {
	db.depth.Acquire(p)
	p.Sleep(Penalty)
	db.depth.Release()
	db.Accesses++
	db.TimeSpent += Penalty
	return "db:" + key
}
