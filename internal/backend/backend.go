// Package backend simulates the data store behind the Memcached caching
// layer (a database in online data processing, a parallel file system for
// burst-buffer workloads). Every access pays a configurable penalty — the
// paper assumes "less than 2 ms" per miss — which is what makes in-memory
// designs collapse when the working set outgrows RAM (Figures 1(b)/2(b)).
package backend

import (
	"hybridkv/internal/sim"
)

// DefaultPenalty matches the paper's assumption of a miss penalty < 2 ms.
const DefaultPenalty = 1800 * sim.Microsecond

// DB is the backend store. It logically holds every key of the workload's
// keyspace: a fetch always succeeds, it is just slow.
type DB struct {
	env     *sim.Env
	penalty sim.Time
	depth   *sim.Resource

	// Accesses counts backend round trips (cache misses).
	Accesses int64
	// TimeSpent accumulates total penalty time paid.
	TimeSpent sim.Time
}

// Config tunes the backend model.
type Config struct {
	// Penalty is the per-access latency (default DefaultPenalty).
	Penalty sim.Time
	// Concurrency bounds in-flight backend queries (default 64 — a
	// connection-pooled database).
	Concurrency int
}

// New creates a backend database.
func New(env *sim.Env, cfg Config) *DB {
	if cfg.Penalty <= 0 {
		cfg.Penalty = DefaultPenalty
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 64
	}
	return &DB{
		env:     env,
		penalty: cfg.Penalty,
		depth:   sim.NewResource(env, cfg.Concurrency),
	}
}

// Fetch retrieves the authoritative value for key, blocking p for the miss
// penalty. The returned token is the backend's value for the key.
func (db *DB) Fetch(p *sim.Proc, key string) any {
	db.depth.Acquire(p)
	p.Sleep(db.penalty)
	db.depth.Release()
	db.Accesses++
	db.TimeSpent += db.penalty
	return "db:" + key
}
