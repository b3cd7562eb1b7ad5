package bench

import (
	"hybridkv/internal/cluster"
	"hybridkv/internal/core"
	"hybridkv/internal/sim"
	"hybridkv/internal/workload"
)

// spec is a cell's deployment: the cluster.Config to build plus the
// standard preload. Every cluster in the package is built here.
type spec struct {
	cluster.Config
	// keys values of kv bytes are preloaded under workload.KeyOf before the
	// driver runs (keys == 0: nothing, or the driver preloads values it can
	// check).
	keys, kv int
}

func (s *spec) build() *cluster.Cluster {
	cl := cluster.New(s.Config)
	if s.keys > 0 {
		cl.Preload(s.keys, s.kv, workload.KeyOf)
	}
	return cl
}

// gen is a generator of w over the spec's preloaded key space.
func (s *spec) gen(w workload.Config) *workload.Generator {
	w.Keys, w.ValueSize = s.keys, s.kv
	return workload.New(w)
}

// closed is the drive of the paper's basic cell: ops operations of w over
// the spec's keys through closedLoop.
func (s *spec) closed(w workload.Config, ops int) func(*cluster.Cluster, *run) {
	return func(cl *cluster.Cluster, r *run) { closedLoop(cl, s.gen(w), ops, r) }
}

// paperSpec is the paper's single-server geometry: mem bytes of slab memory
// on profile prof, preloaded with dataBytes of kv-byte values.
func paperSpec(d cluster.Design, prof cluster.Profile, mem, dataBytes int64, kv int) *spec {
	return &spec{
		Config: cluster.Config{Design: d, Profile: prof, ServerMem: mem},
		keys:   int(dataBytes / int64(kv)), kv: kv,
	}
}

// zipfS is the zipfian exponent of every skewed workload: the YCSB default.
// The paper says only "Zipf-like ... repeated requests to a subset"; the
// exponent controls how much traffic reaches the SSD-resident tail and
// hence the absolute degradation factor of H-RDMA-Def when data does not
// fit. Orderings and who-wins conclusions are insensitive to the choice —
// the abl-zipf ablation sweeps it from 0.2 to 1.2 and shows as much.
const zipfS = 0.99

// zipf is a skewed measured workload: read fraction and generator seed.
func zipf(read float64, seed int64) workload.Config {
	return workload.Config{ReadFraction: read, Pattern: workload.Zipf, ZipfS: zipfS, Seed: seed}
}

// uniform is its unskewed counterpart.
func uniform(read float64, seed int64) workload.Config {
	return workload.Config{ReadFraction: read, Pattern: workload.Uniform, Seed: seed}
}

// guard is the one guarded-issue policy: a request deadline and the retry
// budget behind it. Zero attempt/backoff/maxBackoff select the budget the
// robustness cells share: 8 ms attempts — the timeout must clear the
// slowest legitimate clean-run request, a synchronous H-RDMA-Def Set that
// flushes an eviction batch with direct I/O at up to ~5.5 ms, or the
// "recovery" would retransmit against a healthy, merely busy server — and
// backoff doubling from 100 µs to 2 ms.
type guard struct {
	deadline sim.Time
	attempts int
	seed     int64
	// failover moves retransmits to the next connection: only sound where
	// a miss on the fallback beats blocking, or every replica holds each
	// acked write.
	failover                     bool
	attempt, backoff, maxBackoff sim.Time
	// jitter randomizes backoff (seeded); the history-checked cells leave it
	// off so a replay backs off identically.
	jitter bool
	// hedge, when set, duplicates a GET still unanswered after this long.
	hedge sim.Time
}

// opts renders the policy as issue options; bufferAck adds bset semantics
// (the BufferAck marks writes the server has promised to drain — the
// acked-write-lost invariant's subjects).
func (g guard) opts(bufferAck bool) []core.IssueOption {
	rp := core.RetryPolicy{
		MaxAttempts: g.attempts, AttemptTimeout: 8 * sim.Millisecond,
		Backoff: 100 * sim.Microsecond, MaxBackoff: 2 * sim.Millisecond,
		Jitter: -1, Seed: g.seed, Failover: g.failover,
	}
	if g.attempt > 0 {
		rp.AttemptTimeout = g.attempt
	}
	if g.backoff > 0 {
		rp.Backoff = g.backoff
	}
	if g.maxBackoff > 0 {
		rp.MaxBackoff = g.maxBackoff
	}
	if g.jitter {
		rp.Jitter = 0 // the core default fraction
	}
	opts := []core.IssueOption{core.WithDeadline(g.deadline), core.WithRetry(rp)}
	if bufferAck {
		opts = append(opts, core.WithBufferAck())
	}
	if g.hedge > 0 {
		opts = append(opts, core.WithHedge(g.hedge))
	}
	return opts
}

// issue starts one operation through core.Client.Issue, the one front door
// of both transports (its error is always nil). The caller releases the
// request (core.Client.Release) once it has read it.
func issue(p *sim.Proc, c *core.Client, op core.Op, opts []core.IssueOption) *core.Req {
	req, _ := c.Issue(p, op, opts...)
	return req
}

// do issues one operation and waits for it; the caller releases it.
func do(p *sim.Proc, c *core.Client, op core.Op, opts []core.IssueOption) *core.Req {
	req := issue(p, c, op, opts)
	c.Wait(p, req)
	return req
}

// waitRelease waits for every request and releases it, for a caller that
// reads nothing of them.
func waitRelease(p *sim.Proc, c *core.Client, reqs []*core.Req) {
	c.WaitAll(p, reqs)
	for _, req := range reqs {
		c.Release(req)
	}
}
