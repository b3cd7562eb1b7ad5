package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"syscall"
	"time"

	"hybridkv/internal/cluster"
	"hybridkv/internal/core"
	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
	"hybridkv/internal/workload"
)

// val is the value the benchmark SETs: the key's index and a per-key version,
// so a GET's reply can be checked against what was written to that key.
type val struct{ key, ver uint32 }

// lateAfter is how long after its due time an open-loop op may be issued
// before the generator counts it as late.
const lateAfter = sim.Microsecond

// recorder collects one measured phase's results. All access is from
// simulated procs, which the sim kernel runs one at a time.
type recorder struct {
	issued []uint32 // SET versions handed out per key so far

	get, set []int64 // virtual latency per completed op, ns
	correct  int
	fail     failures

	issueTime, waitTime sim.Time // virtual time inside Issue, and from its return to completion
	late                int      // open loop: ops issued more than lateAfter past due
	lastDone            sim.Time
	done                int // workers finished

	// queue holds, per key, the benchmark's ops whose replies may still be
	// on their way (see order), and keyWaits/keyWaitTime what waiting for
	// them cost.
	queue       [][]*pending
	keyWaits    int
	keyWaitTime sim.Time

	tr *tracer // nil when tracing is off
}

func newRecorder(keys, ops int, readFrac float64, tr *tracer) *recorder {
	gets := int(float64(ops)*readFrac) + ops/50 + 16
	return &recorder{
		issued: make([]uint32, keys),
		queue:  make([][]*pending, keys),
		get:    make([]int64, 0, gets),
		set:    make([]int64, 0, ops-gets+ops/25+32),
		tr:     tr,
	}
}

func (r *recorder) attempted() int { return len(r.get) + len(r.set) }

// nextValue hands out the next version of key idx.
func (r *recorder) nextValue(idx int) val {
	r.issued[idx]++
	return val{key: uint32(idx), ver: r.issued[idx]}
}

// keyIndex recovers the index from a generated key ("obj:%010d").
func keyIndex(key string) int {
	idx, err := strconv.Atoi(key[4:])
	if err != nil {
		panic("benchmark: malformed key " + key)
	}
	return idx
}

// validValue reports whether v is one of the values written to key idx: the
// preload's "v<idx>", or a val with a version already handed out.
func (r *recorder) validValue(idx int, v any) bool {
	switch x := v.(type) {
	case string:
		n, err := strconv.Atoi(x[min(1, len(x)):])
		return len(x) > 1 && x[0] == 'v' && err == nil && n == idx
	case val:
		return int(x.key) == idx && x.ver >= 1 && x.ver <= r.issued[idx]
	}
	return false // includes protocol.Garbled and nil
}

// checkReply classifies one op that completed at virtual time at and records
// its latency. Every key is preloaded and nothing deletes or expires, so
// NOT_FOUND is a failure, not a miss.
func (r *recorder) checkReply(set bool, idx int, err error, v any, lat, at sim.Time) {
	r.lastDone = max(r.lastDone, at)
	if set {
		r.set = append(r.set, int64(lat))
	} else {
		r.get = append(r.get, int64(lat))
	}
	switch {
	case errors.Is(err, core.ErrNotFound):
		r.fail.NotFound++
	case err != nil:
		r.fail.Errors++
	case !set && !r.validValue(idx, v):
		r.fail.Wrong++
	default:
		r.correct++
	}
}

// statusErr maps the blocking wrappers' bare status onto the errors Req.Err
// would return, for the one loop that has no Req to ask.
func statusErr(st protocol.Status) error {
	switch st {
	case protocol.StatusOK, protocol.StatusStored:
		return nil
	case protocol.StatusNotFound:
		return core.ErrNotFound
	}
	return fmt.Errorf("status %v", st)
}

// mix64 is splitmix64: generator seeds are derived from the run seed here
// and nowhere else, so streams of different passes and workers do not
// overlap the way seed+i would.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func streamSeed(seed int64, stream int) int64 {
	return int64(mix64(mix64(uint64(seed))+uint64(stream)) >> 1)
}

// pending is one op of the benchmark's, from the moment its caller draws it
// until its reply has arrived.
type pending struct {
	set bool
	// req is nil while the caller is inside Issue. The blocking wrappers show
	// no request at all; for them over is set when the call returns.
	req  *core.Req
	over bool
	// moved fires when req or over is set, if an op queued behind asked.
	moved *sim.Event
}

func (o *pending) complete() bool { return o.over || o.req != nil && o.req.Done() }

// settle records that the op's Issue returned req or, with a nil req, that
// its blocking call came back.
func (o *pending) settle(req *core.Req) {
	o.req, o.over = req, req == nil
	if o.moved != nil {
		o.moved.Fire()
	}
}

// order queues an op on key idx behind the benchmark's earlier ops on that
// key and blocks p until none of those still in flight conflicts with it: a
// SET has its key to itself, GETs share theirs. Keys are never changed; the
// callers only do what an application that wants defined results does, and
// wait for a write they have outstanding before touching its key again. It is
// also what keeps every reply checkable at the seed commit, whose store
// mishandles a GET that overlaps a SET of its key (README, "Known defect").
//
// An op waits only for ops queued before it, and every op of another caller
// was issued before that caller went on, so it completes on its own: callers
// cannot wait for each other in a circle.
func (r *recorder) order(p *sim.Proc, c *core.Client, set bool, idx int) *pending {
	me := &pending{set: set}
	var ahead []*pending
	live := r.queue[idx][:0]
	for _, o := range r.queue[idx] {
		if o.complete() {
			continue
		}
		live = append(live, o)
		if set || o.set {
			ahead = append(ahead, o)
		}
	}
	r.queue[idx] = append(live, me)
	if len(ahead) == 0 {
		return me
	}
	t0 := p.Now()
	for _, o := range ahead {
		for !o.complete() {
			if o.req != nil {
				c.Wait(p, o.req)
				continue
			}
			if o.moved == nil {
				o.moved = p.Env().NewEvent()
			}
			p.Wait(o.moved)
		}
	}
	r.keyWaits++
	r.keyWaitTime += p.Now() - t0
	return me
}

// draw takes the generator's next op and waits until it may be issued.
func (r *recorder) draw(p *sim.Proc, c *core.Client, gen *workload.Generator) (set bool, key string, idx int, me *pending) {
	kind, key := gen.Next()
	set = kind == workload.OpSet
	idx = keyIndex(key)
	return set, key, idx, r.order(p, c, set, idx)
}

// inflight is one issued request awaiting its check.
type inflight struct {
	req *core.Req
	idx int
	// start is where the op's latency is counted from: Issue's entry, or
	// the due time in the open loop. Issue ran over virtual [entered, issued]
	// and host [h0, h1] (host stamps are 0 with tracing off).
	start, entered, issued sim.Time
	h0, h1                 int64
}

// issueOp draws and issues one op, accounting the virtual time the caller
// spent inside Issue.
func (r *recorder) issueOp(p *sim.Proc, c *core.Client, gen *workload.Generator, valueSize int) inflight {
	set, key, idx, me := r.draw(p, c, gen)
	op := core.Op{Code: protocol.OpGet, Key: key}
	if set {
		op = core.Op{Code: protocol.OpSet, Key: key, ValueSize: valueSize, Value: r.nextValue(idx)}
	}
	t0, h0 := p.Now(), r.tr.host()
	req, err := c.Issue(p, op)
	if err != nil {
		panic("benchmark: issue: " + err.Error())
	}
	me.settle(req)
	t1 := p.Now()
	r.issueTime += t1 - t0
	return inflight{req: req, idx: idx, start: t0, entered: t0, issued: t1, h0: h0, h1: r.tr.host()}
}

// finish checks a completed request and records its latency.
func (r *recorder) finish(f inflight) {
	req := f.req
	set := req.Op == protocol.OpSet
	r.waitTime += req.CompletedAt - f.issued
	r.checkReply(set, f.idx, req.Err(), req.Value, req.CompletedAt-f.start, req.CompletedAt)
	r.tr.completed(f)
}

// spawnWorkers starts the workload's simulated callers for ops operations,
// split evenly. Generator streams are numbered from stream0.
func spawnWorkers(cl *cluster.Cluster, sp *spec, ops int, seed int64, stream0 int, r *recorder) {
	workers := len(cl.Clients) * sp.workers
	per := ops / workers
	start := cl.Env.Now()
	for ci, c := range cl.Clients {
		for w := 0; w < sp.workers; w++ {
			stream := stream0 + ci*sp.workers + w
			gen := workload.New(workload.Config{
				Keys: sp.keys, ValueSize: sp.valueSize, ReadFraction: sp.readFrac,
				Pattern: sp.pattern, Seed: streamSeed(seed, stream),
			})
			var body func(p *sim.Proc)
			switch sp.loop {
			case loopWait:
				body = func(p *sim.Proc) { r.runWait(p, c, gen, sp, per) }
			case loopWindow:
				body = func(p *sim.Proc) { r.runWindow(p, c, gen, sp, per) }
			case loopBlocking:
				body = func(p *sim.Proc) { r.runBlocking(p, c, gen, sp, per) }
			case loopOpen:
				sched := &schedule{
					rng:  rand.New(rand.NewSource(streamSeed(seed, stream+1000))),
					mean: float64(workers) / (sp.rateKops * 1e3) * float64(sim.Second),
					due:  start,
				}
				body = func(p *sim.Proc) { r.runOpen(p, c, gen, sp, per, sched) }
			}
			cl.Env.Spawn(fmt.Sprintf("bench-c%d-w%d", ci, w), func(p *sim.Proc) {
				body(p)
				r.done++
			})
		}
	}
}

func (r *recorder) runWait(p *sim.Proc, c *core.Client, gen *workload.Generator, sp *spec, n int) {
	for i := 0; i < n; i++ {
		f := r.issueOp(p, c, gen, sp.valueSize)
		c.Wait(p, f.req)
		r.finish(f)
	}
}

func (r *recorder) runWindow(p *sim.Proc, c *core.Client, gen *workload.Generator, sp *spec, n int) {
	win := make([]inflight, 0, sp.window)
	reqs := make([]*core.Req, 0, sp.window)
	for left := n; left > 0; {
		win, reqs = win[:0], reqs[:0]
		for i := 0; i < sp.window && left > 0; i, left = i+1, left-1 {
			f := r.issueOp(p, c, gen, sp.valueSize)
			win = append(win, f)
			reqs = append(reqs, f.req)
		}
		// Per-request outcomes are read below; WaitAll's first error is one of them.
		_ = c.WaitAll(p, reqs)
		for _, f := range win {
			r.finish(f)
		}
	}
}

func (r *recorder) runBlocking(p *sim.Proc, c *core.Client, gen *workload.Generator, sp *spec, n int) {
	for i := 0; i < n; i++ {
		set, key, idx, me := r.draw(p, c, gen)
		t0, h0 := p.Now(), r.tr.host()
		var v any
		var st protocol.Status
		if set {
			st = c.Set(p, key, sp.valueSize, r.nextValue(idx), 0, 0)
		} else {
			v, _, st = c.Get(p, key)
		}
		now := p.Now()
		me.settle(nil)
		// The wrapper hides its Issue, so the whole call is wait.
		r.waitTime += now - t0
		r.checkReply(set, idx, statusErr(st), v, now-t0, now)
		r.tr.blocking(t0, now, h0)
	}
}

// schedule is one open-loop generator's arrival process: seeded Poisson, so
// due times are fixed by the seed and not by how the system responds.
type schedule struct {
	rng  *rand.Rand
	mean float64  // mean gap between arrivals, ns
	due  sim.Time // due time of the latest arrival
}

// next draws the next arrival and returns its due time.
func (s *schedule) next() sim.Time {
	s.due += sim.Time(s.rng.ExpFloat64() * s.mean)
	return s.due
}

// arrived notes that an op due at due entered Issue at now.
func (r *recorder) arrived(now, due sim.Time) {
	if now-due > lateAfter {
		r.late++
	}
}

// runOpen issues n ops at their due times whether or not earlier ones have
// completed; latency is counted from the due time. Completed requests are
// checked the next time the generator wakes, and the rest once the last op
// is out.
func (r *recorder) runOpen(p *sim.Proc, c *core.Client, gen *workload.Generator, sp *spec, n int, sched *schedule) {
	var open []inflight
	for i := 0; i < n; i++ {
		due := sched.next()
		p.WaitUntil(due)
		kept := open[:0]
		for _, f := range open {
			if f.req.Done() {
				r.finish(f)
			} else {
				kept = append(kept, f)
			}
		}
		f := r.issueOp(p, c, gen, sp.valueSize)
		r.arrived(f.entered, due)
		f.start = due
		open = append(kept, f)
	}
	for _, f := range open {
		c.Wait(p, f.req)
		r.finish(f)
	}
}

// pass is the result of one build-preload-warm-measure cycle of a workload
// on a fresh cluster, as plain data.
type pass struct {
	Ops int `json:"ops"`

	SetupS    float64 `json:"setup_s"`    // build + preload + settle + warm-up, host
	HostNS    int64   `json:"host_ns"`    // measured phase, host
	VirtualNS int64   `json:"virtual_ns"` // measured phase start to last completion
	Mallocs   uint64  `json:"mallocs"`
	Bytes     uint64  `json:"bytes"`

	// Get and Set are the virtual latency of every completed op, ns.
	Get      []int64  `json:"get"`
	Set      []int64  `json:"set"`
	Correct  int      `json:"correct"`
	Failures failures `json:"failures"`

	// Layers holds the per-layer metrics that one pass can know: those
	// derived from counter snapshots around the measured phase, and the
	// host.* readings of the process over it.
	Layers    map[string]metric `json:"layers"`
	TraceFile string            `json:"trace_file,omitempty"`
}

func (p *pass) attempted() int { return len(p.Get) + len(p.Set) }
func (p *pass) failed() int    { return p.Failures.total() }

// hostUSPerOp is the pass's host time per op, µs.
func (p *pass) hostUSPerOp() float64 { return float64(p.HostNS) / 1e3 / float64(p.Ops) }

// maxSlices bounds the measured phase: a run that needs more steps than this
// has stalled, and the benchmark must fail rather than spin.
const maxSlices = 1 << 20

// advance steps the simulation in equal virtual-time slices until every
// worker has finished, and returns the most goroutines seen. Env.Run is not
// used: background processes (crawler, scrubber) keep scheduling wakeups and
// would pad virtual time.
func advance(env *sim.Env, slice sim.Time, r *recorder, workers int) (peak int, err error) {
	for n := 0; r.done < workers; n++ {
		if n == maxSlices {
			return peak, fmt.Errorf("measured phase stalled: %d of %d workers finished after %d slices", r.done, workers, n)
		}
		env.RunUntil(env.Now() + slice)
		peak = max(peak, runtime.NumGoroutine())
	}
	return peak, nil
}

// hostUsage is what the operating system and the Go runtime have charged
// this process so far.
type hostUsage struct {
	user, sys, gc float64 // CPU seconds
	maxRSSMB      float64
	mem           runtime.MemStats
}

func readUsage() (hostUsage, error) {
	var u hostUsage
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return u, fmt.Errorf("getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	u.user, u.sys, u.maxRSSMB = tv(ru.Utime), tv(ru.Stime), float64(ru.Maxrss)/1024
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() == rtmetrics.KindFloat64 {
		u.gc = s[0].Value.Float64()
	}
	runtime.ReadMemStats(&u.mem)
	return u, nil
}

// runPass builds the workload's deployment, preloads and warms it, and
// measures ops operations generated from seed. With traceDir set it records
// spans around the client API calls of the measured phase and writes them
// there once the phase is over.
func runPass(sp *spec, seed int64, ops int, traceDir string) (*pass, error) {
	t0 := time.Now()
	cl := cluster.New(sp.cfg())
	keyOf := workload.New(workload.Config{Keys: sp.keys}).Key
	cl.Preload(sp.keys, sp.valueSize, keyOf)
	if sp.crawler {
		for _, s := range cl.Servers {
			if err := s.Store().StartCrawler(200*sim.Microsecond, 4096); err != nil {
				return nil, fmt.Errorf("%s: %w", sp.name, err)
			}
		}
	}
	workers := len(cl.Clients) * sp.workers
	ops = max(ops/workers, 1) * workers

	warm := newRecorder(sp.keys, ops/10+workers, sp.readFrac, nil)
	spawnWorkers(cl, sp, max(ops/10, workers), seed, 0, warm)
	if _, err := advance(cl.Env, sp.slice, warm, workers); err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", sp.name, err)
	}

	var tr *tracer
	if traceDir != "" {
		tr = newTracer(ops)
	}
	rec := newRecorder(sp.keys, ops, sp.readFrac, tr)
	copy(rec.issued, warm.issued)
	runtime.GC()
	p := &pass{Ops: ops, SetupS: time.Since(t0).Seconds()}

	before := snap(cl)
	u0, err := readUsage()
	if err != nil {
		return nil, err
	}
	start := cl.Env.Now()
	h0 := time.Now()
	spawnWorkers(cl, sp, ops, seed, 100, rec)
	peak, err := advance(cl.Env, sp.slice, rec, workers)
	p.HostNS = time.Since(h0).Nanoseconds()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sp.name, err)
	}
	u1, err := readUsage()
	if err != nil {
		return nil, err
	}
	after := snap(cl)
	if sp.crawler {
		for _, s := range cl.Servers {
			s.Store().StopCrawler()
		}
	}
	if got := rec.attempted(); got != ops {
		return nil, fmt.Errorf("%s: %d of %d replies were checked", sp.name, got, ops)
	}

	virtual := rec.lastDone - start
	p.VirtualNS = int64(virtual)
	p.Mallocs = u1.mem.Mallocs - u0.mem.Mallocs
	p.Bytes = u1.mem.TotalAlloc - u0.mem.TotalAlloc
	p.Get, p.Set, p.Correct = rec.get, rec.set, rec.correct
	p.Failures = rec.fail
	p.Layers = counterMetrics(sp, rec, before, after, virtual, len(cl.Devices))
	cpu := u1.user - u0.user + u1.sys - u0.sys
	put := func(name string, v float64, unit string) { p.Layers[name] = metric{Value: v, Unit: unit} }
	put("sim.host_us_per_virtual_ms", ratio(float64(p.HostNS)/1e3, float64(virtual)/float64(sim.Millisecond)), "us")
	put("host.cpu_s", cpu, "s")
	put("host.sys_share", ratio(u1.sys-u0.sys, cpu), "ratio")
	put("host.gc_cycles", float64(u1.mem.NumGC-u0.mem.NumGC), "count")
	put("host.gc_cpu_share", ratio(u1.gc-u0.gc, cpu), "ratio")
	put("host.maxrss_mb", u1.maxRSSMB, "MB")
	put("host.goroutines_peak", float64(peak), "count")
	if tr != nil {
		if p.TraceFile, err = tr.write(traceDir, sp.name); err != nil {
			return nil, err
		}
	}
	return p, nil
}
