package bench

import (
	"errors"
	"fmt"

	"hybridkv/internal/cluster"
	"hybridkv/internal/core"
	"hybridkv/internal/metrics"
	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
	"hybridkv/internal/workload"
)

// The drivers: one per workload shape. Every operation of every design
// starts in issue / do (spec.go) — core.Client.Issue, on RDMA and on the
// socket alike — and what differs between designs is only when the driver
// waits: a non-blocking design (iset/iget, or bset/bget through apiOpts)
// has requests in flight and collects them later, a blocking one waits after
// each issue (issueAs). The closed-loop drivers run the simulation to
// completion and fill the run's measurement fields; they must be called
// outside any sim process. The spawn* ones only start their processes: the
// caller runs the Env.

// opFor is the operation for one generated (kind, key): the value of a Set
// is its key, so a later hit is checkable.
func opFor(kind workload.OpKind, key string, vs int) core.Op {
	if kind == workload.OpSet {
		return core.Op{Code: protocol.OpSet, Key: key, ValueSize: vs, Value: key}
	}
	return core.Op{Code: protocol.OpGet, Key: key}
}

// apiOpts are the issue options of the design's non-blocking API: iset and
// iget take none, bset and bget ask for the BufferAck.
func apiOpts(cl *cluster.Cluster) []core.IssueOption {
	if cl.Design.BufferGuarantee() {
		return []core.IssueOption{core.WithBufferAck()}
	}
	return nil
}

// phase runs body as the one driver process on client 0 until the Env
// drains, and stamps the span and the operation count.
func phase(cl *cluster.Cluster, ops int, r *run, body func(p *sim.Proc, c *core.Client)) {
	start := cl.Env.Now()
	cl.Env.Spawn("driver", func(p *sim.Proc) { body(p, cl.Clients[0]) })
	cl.Env.Run()
	r.Elapsed = cl.Env.Now() - start
	r.Ops = int64(ops)
}

// issueAs starts op through the API the cluster's design stands for: on a
// non-blocking design the request is in flight on return, a blocking one
// waits after each issue and hands back a request that is done.
func issueAs(p *sim.Proc, cl *cluster.Cluster, c *core.Client, op core.Op, opts []core.IssueOption) *core.Req {
	req := issue(p, c, op, opts)
	if !cl.Design.NonBlocking() {
		c.Wait(p, req)
	}
	return req
}

// oneAtATime is the depth-1 closed loop's per-process body: ops operations,
// each issued through opts (nil: unguarded) and waited for, under the
// web-caching contract — a Get miss fetches the value from the
// backend (the miss penalty, summed in r.MissPenalty) and re-populates the
// cache. Every op is tallied and timed, the miss's refill included.
func oneAtATime(p *sim.Proc, cl *cluster.Cluster, c *core.Client, gen *workload.Generator, ops int, opts []core.IssueOption, r *run) {
	vs := gen.ValueSize()
	for i := 0; i < ops; i++ {
		kind, key := gen.Next()
		t0 := p.Now()
		err := do(p, c, opFor(kind, key, vs), opts).Err()
		r.classify(err)
		if errors.Is(err, core.ErrNotFound) {
			mt := p.Now()
			v := cl.Backend.Fetch(p, key)
			r.MissPenalty += p.Now() - mt
			do(p, c, core.Op{Code: protocol.OpSet, Key: key, ValueSize: vs, Value: v}, opts)
		}
		d := p.Now() - t0
		r.Lat.Add(d)
		if kind == workload.OpSet {
			r.SetLat.Add(d)
		} else {
			r.GetLat.Add(d)
		}
	}
}

// issueAll issues n operations of gen without waiting, charging the time
// the application was stuck inside the issue calls to r.Stall.
func issueAll(p *sim.Proc, c *core.Client, gen *workload.Generator, n int, opts []core.IssueOption, r *run) []*core.Req {
	reqs := make([]*core.Req, 0, n)
	for i := 0; i < n; i++ {
		kind, key := gen.Next()
		t0 := p.Now()
		reqs = append(reqs, issue(p, c, opFor(kind, key, gen.ValueSize()), opts))
		r.Stall += p.Now() - t0
	}
	return reqs
}

// drain waits for every request, then tallies and times each (issue to
// completion: a timed-out op's tail counts — that is where faults show).
func drain(p *sim.Proc, c *core.Client, reqs []*core.Req, r *run) {
	c.WaitAll(p, reqs)
	for _, req := range reqs {
		r.classify(req.Err())
		r.Lat.Add(req.CompletedAt - req.IssuedAt)
	}
}

// pipelined drives n operations in windows: issue one, drain it, repeat.
func pipelined(p *sim.Proc, c *core.Client, gen *workload.Generator, n, window int, opts []core.IssueOption, r *run) {
	for left := n; left > 0; left -= window {
		drain(p, c, issueAll(p, c, gen, min(window, left), opts, r), r)
	}
}

// byDesign drives ops operations of gen on c, each issued through opts, with
// the API of the cluster's design: a non-blocking design pipelines them in
// windows of window ops, a blocking one runs them one at a time.
func byDesign(p *sim.Proc, cl *cluster.Cluster, c *core.Client, gen *workload.Generator, ops, window int, opts []core.IssueOption, r *run) {
	if cl.Design.NonBlocking() {
		pipelined(p, c, gen, ops, window, opts, r)
	} else {
		oneAtATime(p, cl, c, gen, ops, opts, r)
	}
}

// closedLoop drives ops operations of gen through client 0 with the API of
// the cluster's design and profiles the phase: the paper's basic
// measurement. A blocking design runs them back to back (PerOp: the mean op
// latency); a non-blocking one issues them all and waits for the
// completions at the end — the paper's "large iteration of non-blocking
// Set/Get requests" (PerOp: elapsed over ops).
func closedLoop(cl *cluster.Cluster, gen *workload.Generator, ops int, r *run) {
	before := make([]metrics.Breakdown, len(cl.Servers))
	for i, s := range cl.Servers {
		before[i] = s.Store().Prof
	}
	phase(cl, ops, r, func(p *sim.Proc, c *core.Client) {
		byDesign(p, cl, c, gen, ops, ops, apiOpts(cl), r)
	})
	if r.PerOp = r.Lat.Mean(); cl.Design.NonBlocking() && ops > 0 {
		r.PerOp = r.Elapsed / sim.Time(ops)
	}
	r.Server = metrics.Breakdown{}
	for i, s := range cl.Servers {
		r.Server.Merge(s.Store().Prof.Sub(before[i]))
	}
}

// computeGrain is the unit of application computation interleaved with
// in-flight operations when measuring available overlap.
const computeGrain = 5 * sim.Microsecond

// driveOverlap measures the time available for application computation
// (Figure 7(a)): issue every op, then compute in grains, testing completion
// between grains; r.Stall is the computation that fit, and overlap% =
// Stall/Elapsed. A blocking design's requests are done as issued — no
// overlap by construction — and it reports the measured (≈0) figure.
func driveOverlap(cl *cluster.Cluster, gen *workload.Generator, ops int, r *run) {
	phase(cl, ops, r, func(p *sim.Proc, c *core.Client) {
		var pending []*core.Req
		for i := 0; i < ops; i++ {
			kind, key := gen.Next()
			pending = append(pending, issueAs(p, cl, c, opFor(kind, key, gen.ValueSize()), apiOpts(cl)))
		}
		for len(pending) > 0 {
			if c.Test(pending[0]) {
				pending = pending[1:]
				continue
			}
			p.Sleep(computeGrain)
			r.Stall += computeGrain
		}
	})
}

func (r *run) overlapPct() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return 100 * float64(r.Stall) / float64(r.Elapsed)
}

// driveBlockIO writes then reads every block of the workload (Figure 8(b)).
// A non-blocking design issues all chunks of a block and waits block by
// block (Listing 2); a blocking one round-trips each chunk. SetLat holds
// the per-block write latency, GetLat the per-block read latency.
func driveBlockIO(cl *cluster.Cluster, bc workload.BlockConfig, r *run) {
	chunks := bc.ChunksPerBlock()
	pass := func(p *sim.Proc, c *core.Client, lat *metrics.Hist, code protocol.Opcode) {
		for blk := 0; blk < bc.Blocks(); blk++ {
			t0 := p.Now()
			var reqs []*core.Req
			for ch := 0; ch < chunks; ch++ {
				op := core.Op{Code: code, Key: bc.ChunkKey(blk, ch)}
				if code == protocol.OpSet {
					op.ValueSize, op.Value = bc.ChunkSize, blk*chunks+ch
				}
				reqs = append(reqs, issueAs(p, cl, c, op, nil))
			}
			c.WaitAll(p, reqs)
			lat.Add(p.Now() - t0)
		}
	}
	phase(cl, bc.Blocks(), r, func(p *sim.Proc, c *core.Client) {
		pass(p, c, r.SetLat, protocol.OpSet)
		pass(p, c, r.GetLat, protocol.OpGet)
	})
}

// driveThroughput drives every client concurrently with opsPer ops each;
// non-blocking designs pipeline in windows of window ops. Elapsed runs to
// the Env draining, Last to the last client's completion.
func driveThroughput(cl *cluster.Cluster, mk func(ci int) *workload.Generator, opsPer, window int, r *run) {
	start, perOp := cl.Env.Now(), newRun(nil) // per-op tallies are not what this driver measures
	for ci, c := range cl.Clients {
		gen := mk(ci)
		cl.Env.Spawn(fmt.Sprintf("drv-tput-%d", ci), func(p *sim.Proc) {
			byDesign(p, cl, c, gen, opsPer, window, apiOpts(cl), perOp)
			r.Last = max(r.Last, p.Now()-start)
		})
	}
	cl.Env.Run()
	r.Elapsed = cl.Env.Now() - start
	r.Ops = int64(opsPer * len(cl.Clients))
}

func flushWrites(cl *cluster.Cluster) (n int64) {
	for _, s := range cl.Servers {
		n += s.Store().Manager().FlushWrites
	}
	return n
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// driveBatched drives ops operations in coalescing windows of batch ops on
// client 0, recording per-op latency (issue to completion for the
// non-blocking designs, call duration on the socket path), wire sends —
// on RDMA each consumed one flow-control credit; a frame of N ops counts
// once — and the eviction flush writes the servers issued (merged flushes
// count once). batch == 1 issues one op at a time with no window open: the
// pre-batching behaviour. On RDMA designs a window is BeginBatch / issue /
// Flush / WaitAll; on IPoIB it is libmemcached-style request buffering
// flushed every batch ops.
func driveBatched(cl *cluster.Cluster, gen *workload.Generator, ops, batch int, r *run) {
	c := cl.Clients[0]
	flush0, sends0, frames0 := flushWrites(cl), c.Counters.Val(metrics.CSends), c.Counters.Val(metrics.CFrames)
	phase(cl, ops, r, func(p *sim.Proc, c *core.Client) {
		if cl.Design.Transport() == core.IPoIB {
			batchedSocket(p, c, gen, ops, batch, r)
			return
		}
		for left := ops; left > 0; left -= batch {
			n := min(batch, left)
			if n > 1 {
				must(c.BeginBatch())
			}
			reqs := issueAll(p, c, gen, n, apiOpts(cl), r)
			if n > 1 {
				must(c.Flush(p))
			}
			drain(p, c, reqs, r)
		}
	})
	r.Sends, r.Frames = c.Counters.Val(metrics.CSends)-sends0, c.Counters.Val(metrics.CFrames)-frames0
	r.FlushWrites = flushWrites(cl) - flush0
}

func batchedSocket(p *sim.Proc, c *core.Client, gen *workload.Generator, ops, batch int, r *run) {
	if batch > 1 {
		must(c.SetBuffering(true))
		defer func() { must(c.SetBuffering(false)) }()
		defer c.FlushBuffers(p)
	}
	for i := 1; i <= ops; i++ {
		kind, key := gen.Next()
		t0 := p.Now()
		do(p, c, opFor(kind, key, gen.ValueSize()), nil)
		if batch > 1 && i%batch == 0 {
			c.FlushBuffers(p)
		}
		r.Lat.Add(p.Now() - t0)
	}
}

// workers is a concurrent closed-loop load: perClient processes on every
// client, each performing ops unguarded operations one at a time.
type workers struct {
	perClient, ops int
	// gen builds worker n's generator (its own seed).
	gen func(worker int) *workload.Generator
	// pick, when set, may override the generator's draw for a worker's i-th
	// operation, rel after the load started (a flash crowd's celebrity key).
	pick func(i int, rel sim.Time) (kind workload.OpKind, key string, ok bool)
	// think, when set, is the pause after an operation that completed rel
	// after the load started.
	think func(rel sim.Time) sim.Time
	// finished, when set, runs as each worker ends.
	finished func()
}

// spawnWorkers starts the load. GET latency is recorded per completion;
// OK counts stored SETs and hit GETs, Misses the GETs answered NotFound.
func spawnWorkers(cl *cluster.Cluster, w workers, r *run) {
	start := cl.Env.Now()
	for ci, c := range cl.Clients {
		for n := 0; n < w.perClient; n++ {
			gen := w.gen(ci*w.perClient + n)
			cl.Env.Spawn(fmt.Sprintf("drv-c%d-w%d", ci, n), func(p *sim.Proc) {
				if w.finished != nil {
					defer w.finished()
				}
				for i := 0; i < w.ops; i++ {
					kind, key, ok := workload.OpGet, "", false
					if w.pick != nil {
						kind, key, ok = w.pick(i, p.Now()-start)
					}
					if !ok {
						kind, key = gen.Next()
					}
					t0 := p.Now()
					req := do(p, c, opFor(kind, key, gen.ValueSize()), nil)
					if kind == workload.OpGet {
						r.GetLat.Add(p.Now() - t0)
					}
					switch req.Status {
					case protocol.StatusStored, protocol.StatusOK:
						r.OK++
					case protocol.StatusNotFound:
						r.Misses++
					}
					if w.think != nil {
						p.Sleep(w.think(p.Now() - start))
					}
				}
			})
		}
	}
	r.Ops = int64(w.ops * w.perClient * len(cl.Clients))
}

// arrivals is an open-loop arrival process: n operations, op(i) issued gap
// after its predecessor whatever the system's backlog, with pause(i) more
// idle time after arrival i where a schedule has bursts (nil: steady).
type arrivals struct {
	n     int
	op    func(i int) core.Op
	gap   sim.Time
	pause func(i int) sim.Time
	// from is the instant measurement starts: earlier arrivals are issued
	// (they are the detectors' warm-up) but not tallied.
	from sim.Time
}

// spawnArrivals starts the arrival process on client c: each arrival is an
// independent guarded request in its own process, so the driver never
// self-throttles. Every measured completion is tallied (OK / miss /
// failed) and timed into Lat; GetLat takes only GETs that were admitted
// and answered OK — the latency shedding protects.
func spawnArrivals(cl *cluster.Cluster, c *core.Client, a arrivals, opts []core.IssueOption, r *run) {
	inflight := 0
	cl.Env.Spawn("drv-arrivals", func(p *sim.Proc) {
		for i := 0; i < a.n; i++ {
			op, t0 := a.op(i), p.Now()
			inflight++
			r.InflightPeak = max(r.InflightPeak, inflight)
			cl.Env.Spawn(fmt.Sprintf("arrival%d", i), func(q *sim.Proc) {
				req := do(q, c, op, opts)
				inflight--
				if t0 < a.from {
					return
				}
				r.classify(req.Err())
				r.Lat.Add(q.Now() - t0)
				if op.Code == protocol.OpGet && req.Err() == nil {
					r.GetLat.Add(q.Now() - t0)
				}
			})
			p.Sleep(a.gap)
			if a.pause != nil && a.pause(i) > 0 {
				p.Sleep(a.pause(i))
			}
		}
	})
	r.Ops = int64(a.n)
}

// flood is a burst generator of scratch-key SETs: after a quiet start, ops
// sets of valueSize bytes on key(i), issued burst at a time through opts
// with gap between bursts. Failures are the point of the pressure; nothing
// here is logged.
type flood struct {
	ops, burst, valueSize int
	key                   func(i int) string
	after, gap            sim.Time
}

func spawnFlood(cl *cluster.Cluster, c *core.Client, f flood, opts []core.IssueOption) {
	cl.Env.Spawn("flood", func(p *sim.Proc) {
		if f.after > 0 {
			p.Sleep(f.after)
		}
		var win []*core.Req
		for i := 0; i < f.ops; i++ {
			key := f.key(i)
			win = append(win, issue(p, c, core.Op{Code: protocol.OpSet, Key: key, ValueSize: f.valueSize, Value: key}, opts))
			if len(win) == f.burst {
				c.WaitAll(p, win)
				win = win[:0]
				p.Sleep(f.gap)
			}
		}
		c.WaitAll(p, win)
	})
}
