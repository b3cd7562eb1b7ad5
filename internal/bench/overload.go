package bench

import (
	"hybridkv/internal/cluster"
	"hybridkv/internal/core"
	"hybridkv/internal/metrics"
	"hybridkv/internal/sim"
	"hybridkv/internal/workload"
)

// The overload experiment: a bursty open-loop arrival schedule slams every
// design twice — once with the server's plain blocking buffer reservation
// ("off") and once with bounded admission + shedding on the server and
// busy-aware retries + circuit breakers on the client ("on"). The contrast
// the paper's bursty block-I/O regime motivates: unprotected, the async
// buffer fills and the storage queue grows without bound, so every admitted
// GET waits behind the whole backlog; protected, over-watermark SETs are
// shed with StatusBusy and retried into the idle gaps, keeping admitted-GET
// tail latency bounded.

const (
	// The arrival schedule: three tight bursts with recovery gaps —
	// arrivals far faster than the hybrid storage path drains, idle long
	// enough for a protected server to catch up.
	overBursts       = 3
	overInterarrival = 2 * sim.Microsecond
	overIdle         = 3 * sim.Millisecond

	// The deadline is generous on purpose: the unprotected baseline must be
	// allowed to finish its queued work so the damage shows up as tail
	// latency, not as truncated failures.
	overDeadline = 40 * sim.Millisecond

	// Server admission geometry for the protected phase (and every
	// robustness soak after it): a small buffer so smoke-scale bursts
	// saturate.
	overBufferBytes = 96 << 10
	overWorkers     = 2

	// overBreaker is the protected client's breaker threshold: consecutive
	// busy rejections or timeouts from one server before it opens.
	overBreaker = 8
)

// overloadCell is one phase: design d on a two-server deployment sized so
// bursts saturate at smoke scale — a deliberately small async buffer, two
// storage workers, and the overcommitted dataset that makes every SET pay
// the hybrid eviction path. protected arms the server's bounded admission
// and the client's per-server circuit breakers.
func overloadCell(d cluster.Design, mem int64, kv, ops int, protected bool) cell {
	cfg := cluster.Config{
		Design: d, Profile: cluster.ClusterA(), Servers: 2, Clients: 1,
		ServerMem: mem / 2, StorageWorkers: overWorkers, BufferBytes: overBufferBytes,
		// Small slab pages: eviction flushes every few SETs instead of
		// every 128, so bursts genuinely contend for the storage workers.
		SlabPageSize: 4 * kv,
	}
	prefix := "off_"
	if protected {
		prefix = "on_"
		cfg.Overload = true
		cfg.Breaker = overBreaker
	}
	sp := &spec{Config: cfg, keys: int(mem * 3 / 2 / int64(kv)), kv: kv}
	return cell{design: d.String(), prefix: prefix, row: d.String(), spec: sp, drive: func(cl *cluster.Cluster, r *run) {
		// Uniform over the overcommitted dataset: a third of the GETs hit
		// the SSD-resident tail, so the storage workers are the contended
		// resource (a Zipf-hot workload would serve almost everything from
		// RAM and the bursts would never queue).
		driveBursts(cl, sp.gen(uniform(0.5, 7)), ops, r)
	}}
}

// driveBursts drives ops operations through the bursty schedule on client
// 0. RDMA designs run true open loop; the socket design runs the same
// schedule closed-loop (one stream admits no concurrency), with lateness
// accumulating in the driver instead.
func driveBursts(cl *cluster.Cluster, gen *workload.Generator, ops int, r *run) {
	c, vs := cl.Clients[0], gen.ValueSize()
	start := cl.Env.Now()
	perBurst := (ops + overBursts - 1) / overBursts
	opts := guard{deadline: overDeadline, attempts: 6, seed: 11, jitter: true}.opts(cl.Design.BufferGuarantee())
	if cl.Design.Transport() == core.RDMA {
		spawnArrivals(cl, c, arrivals{
			n: ops,
			op: func(int) core.Op {
				kind, key := gen.Next()
				return opFor(kind, key, vs)
			},
			gap: overInterarrival,
			pause: func(i int) sim.Time {
				if (i+1)%perBurst == 0 && (i+1)/perBurst < overBursts {
					return overIdle
				}
				return 0
			},
		}, opts, r)
	} else {
		cl.Env.Spawn("drv-bursts", func(p *sim.Proc) {
			for n := 0; n < ops; n++ {
				at := start + sim.Time(n/perBurst)*overIdle + sim.Time(n)*overInterarrival
				if now := p.Now(); now < at {
					p.Sleep(at - now)
				}
				kind, key := gen.Next()
				t0 := p.Now()
				req := do(p, c, opFor(kind, key, vs), opts)
				err := req.Err()
				c.Release(req)
				r.classify(err)
				if kind == workload.OpGet && err == nil {
					r.GetLat.Add(p.Now() - t0)
				}
				r.Lat.Add(p.Now() - t0)
			}
		})
		r.Ops = int64(ops)
	}
	cl.Env.Run()
	r.Elapsed = cl.Env.Now() - start
}

// overload is the registry entry: six designs × {unprotected, protected},
// reporting admitted-GET p99, overall p99, goodput, shed and breaker
// counters, and the buffer/queue high-water marks.
var overloadExp = Experiment{
	ID: "overload", Title: "Graceful degradation: bounded admission and shedding under bursty arrivals",
	cells: func(o Options) (cells []cell) {
		mem, _, opsDef := o.geometry()
		mem /= 8 // small memory: bursts must saturate at smoke scale
		ops := o.ops(opsDef / 2)
		for _, d := range cluster.Designs {
			for _, protected := range []bool{false, true} {
				c := overloadCell(d, mem, 8*1024, ops, protected)
				tag := map[bool]string{false: "off", true: "on"}[protected]
				c.collect = func(_ *cluster.Cluster, r *run) {
					r.show(tag+" get-p99µs", "get_p99_us", us(r.GetLat.Quantile(0.99)))
					r.show(tag+" p99µs", "p99_us", us(r.Lat.Quantile(0.99)))
					r.set("goodput", r.goodput())
					r.set("failed", float64(r.Failed))
					r.set("buffer_peak", float64(r.BufferPeak))
					r.show(tag+" q-peak", "queue_peak", float64(r.QueuePeak))
					r.set("inflight_peak", float64(r.InflightPeak))
					if !protected {
						return
					}
					r.plot("shed s/g", float64(r.ShedSets+r.ShedGets))
					r.set("shed_sets", float64(r.ShedSets))
					r.set("shed_gets", float64(r.ShedGets))
					r.show("busy-retries", "busy", float64(r.Clients.Val(metrics.CBusy)))
					r.counts(r.Clients, metrics.CRetries, metrics.CBreakerOpen, metrics.CBreakerClose,
						metrics.CBreakerReroutes)
				}
				cells = append(cells, c)
			}
		}
		return cells
	},
}
