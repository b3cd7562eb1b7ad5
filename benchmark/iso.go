package main

import (
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"hybridkv/internal/blockdev"
	"hybridkv/internal/hybridslab"
	"hybridkv/internal/pagecache"
	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
	"hybridkv/internal/simnet"
	"hybridkv/internal/slab"
	"hybridkv/internal/store"
	"hybridkv/internal/verbs"
	"hybridkv/internal/workload"
)

// Layer drivers: each calls one layer's public functions alone, in a fresh
// sim.Env, with the workload's shape (value size, read share, key count,
// SSD and page-cache profile), and reports what one call costs on both
// clocks. The op mix and offsets are drawn from the run seed.

// isoCalls is the least number of calls a layer driver makes in a traced run.
const isoCalls = 20000

// hostCost runs f, which makes calls calls, and returns the host ns and heap
// allocations one call cost.
func hostCost(calls int, f func()) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(d.Nanoseconds()) / float64(calls), float64(m1.Mallocs-m0.Mallocs) / float64(calls)
}

// mean accumulates virtual time over calls.
type mean struct {
	sum sim.Time
	n   int
}

func (m *mean) add(d sim.Time) { m.sum += d; m.n++ }
func (m *mean) us() float64    { return ratio(us(m.sum), float64(m.n)) }

// runProc runs fn as the only caller in env until it returns.
func runProc(env *sim.Env, fn func(p *sim.Proc)) {
	env.Spawn("iso", fn)
	env.Run()
}

// isoMetrics runs every layer driver for sp and returns the iso_* metrics.
func isoMetrics(sp *spec, seed int64, calls int) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }
	gen := func(stream int) *workload.Generator {
		return workload.New(workload.Config{
			Keys: sp.keys, ValueSize: sp.valueSize, ReadFraction: sp.readFrac,
			Pattern: sp.pattern, Seed: streamSeed(seed, 2000+stream),
		})
	}
	isoProtocol(sp, gen(0), calls, put)
	isoVerbs(sp, gen(1), calls, put)
	isoSimnet(sp, gen(2), calls, put)
	isoStore(sp, gen(3), calls, put)
	isoHybridslab(sp, calls, put)
	isoPagecache(sp, rand.New(rand.NewSource(streamSeed(seed, 2005))), calls, put)
	isoBlockdev(sp, rand.New(rand.NewSource(streamSeed(seed, 2006))), calls, put)
	isoSim(calls, put)
	isoWorkload(gen(7), calls, put)
	return m
}

type putFn func(name string, v float64, unit string)

// wireSizes returns the wire size of n requests drawn from g.
func wireSizes(sp *spec, g *workload.Generator, n int) []int {
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = request(sp, g, uint64(i)).WireSize()
	}
	return sizes
}

// request builds the wire request for the generator's next op.
func request(sp *spec, g *workload.Generator, id uint64) *protocol.Request {
	kind, key := g.Next()
	r := &protocol.Request{Op: protocol.OpGet, ReqID: id, Key: key}
	if kind == workload.OpSet {
		r.Op, r.ValueSize = protocol.OpSet, sp.valueSize
	}
	return r
}

func isoProtocol(sp *spec, g *workload.Generator, calls int, put putFn) {
	reqs := make([]*protocol.Request, calls)
	for i := range reqs {
		reqs[i] = request(sp, g, uint64(i))
	}
	resp := &protocol.Response{Op: protocol.OpResponse, Status: protocol.StatusOK, ValueSize: sp.valueSize}
	hdrs := make([][]byte, calls)
	var rb []byte
	mNS, mAllocs := hostCost(calls, func() {
		for i, r := range reqs {
			hdrs[i] = r.MarshalHeader()
			rb = resp.Marshal()
		}
	})
	sink := 0 // keeps the decoded results alive
	uNS, uAllocs := hostCost(calls, func() {
		for _, h := range hdrs {
			r, err := protocol.UnmarshalHeader(h)
			if err != nil {
				panic("benchmark: " + err.Error())
			}
			rr, err := protocol.UnmarshalResponse(rb)
			if err != nil {
				panic("benchmark: " + err.Error())
			}
			sink += len(r.Key) + rr.ValueSize
		}
	})
	runtime.KeepAlive(sink)
	put("protocol.iso_marshal_ns", mNS, "ns")
	put("protocol.iso_unmarshal_ns", uNS, "ns")
	put("protocol.iso_allocs", mAllocs+uAllocs, "count")
}

// isoVerbs times a two-sided SEND of each request (doorbell to the peer's
// receive completion) and a one-sided READ of the value (doorbell to the
// local completion) between two HCAs on an otherwise idle FDR fabric.
func isoVerbs(sp *spec, g *workload.Generator, calls int, put putFn) {
	env := sim.NewEnv()
	fab := simnet.New(env, simnet.FDRInfiniBand())
	devA, devB := verbs.OpenDevice(fab.AddNode("a")), verbs.OpenDevice(fab.AddNode("b"))
	sendA, recvB := devA.CreateCQ(0), devB.CreateCQ(0)
	qpA := devA.CreateQP(sendA, devA.CreateCQ(0))
	qpB := devB.CreateQP(devB.CreateCQ(0), recvB)
	verbs.Connect(qpA, qpB)
	remote := devB.AllocPD().RegisterMRSetup(sp.valueSize + protocol.DirSegHeaderBytes)
	local := devA.AllocPD().RegisterMRSetup(sp.valueSize + protocol.DirSegHeaderBytes)
	for i := 0; i < calls; i++ {
		qpB.PostRecv(verbs.RecvWR{})
	}
	sizes := wireSizes(sp, g, calls)
	var send, read mean
	arrived := sim.NewQueue[sim.Time](env, 0)
	env.Spawn("iso-peer", func(p *sim.Proc) {
		for i := 0; i < calls; i++ {
			recvB.WaitPoll(p)
			arrived.TryPut(p.Now())
		}
	})
	ns, allocs := hostCost(2*calls, func() {
		runProc(env, func(p *sim.Proc) {
			for i := 0; i < calls; i++ {
				t0 := p.Now()
				qpA.PostSend(p, verbs.SendWR{WRID: uint64(i), Op: verbs.OpSend, Size: sizes[i]})
				at, _ := arrived.Get(p)
				send.add(at - t0)
			}
			for i := 0; i < calls; i++ {
				// A bypass hit is a 48-byte slot READ, then the value READ.
				size := protocol.DirSlotBytes
				if i%2 == 1 {
					size = sp.valueSize + protocol.DirSegHeaderBytes
				}
				t0 := p.Now()
				qpA.PostSend(p, verbs.SendWR{WRID: uint64(i), Op: verbs.OpRead, Size: size, RemoteMR: remote.LKey(), LocalMR: local, Signaled: true})
				sendA.WaitPoll(p)
				read.add(p.Now() - t0)
			}
		})
	})
	put("verbs.iso_send_us", send.us(), "us")
	put("verbs.iso_read_us", read.us(), "us")
	put("verbs.iso_op_ns", ns, "ns")
	put("verbs.iso_op_allocs", allocs, "count")
}

// isoSimnet times one fabric message per request, send to delivery.
func isoSimnet(sp *spec, g *workload.Generator, calls int, put putFn) {
	env := sim.NewEnv()
	fab := simnet.New(env, simnet.FDRInfiniBand())
	a := fab.AddNode("a")
	fab.AddNode("b")
	sizes := wireSizes(sp, g, calls)
	var msg mean
	ns, allocs := hostCost(calls, func() {
		runProc(env, func(p *sim.Proc) {
			for i := 0; i < calls; i++ {
				t0 := p.Now()
				out := a.Send(p, "b", sizes[i], nil)
				p.Wait(out.Delivered)
				msg.add(p.Now() - t0)
			}
		})
	})
	put("simnet.iso_msg_us", msg.us(), "us")
	put("simnet.iso_msg_ns", ns, "ns")
	put("simnet.iso_msg_allocs", allocs, "count")
}

// storage builds one server's storage stack the way cluster.New does for the
// workload's deployment, with mem bytes of slab memory.
func storage(sp *spec, env *sim.Env, mem int64) (*hybridslab.Manager, *pagecache.Cache, *blockdev.Device) {
	cfg := sp.cfg()
	const arena = 16 << 30
	dev := blockdev.New(env, cfg.Profile.SSD, 2*arena)
	cache := pagecache.New(env, dev, cfg.Profile.PageCache)
	mgr := hybridslab.New(env, hybridslab.Config{
		Slab:   slab.Config{MemLimit: mem},
		Policy: cfg.Design.Policy(),
	}, cache.OpenFile(0, 2*arena))
	return mgr, cache, dev
}

// isoStore drives one server's store alone: its share of the keys is
// preloaded, then one caller runs the workload's op mix against it.
func isoStore(sp *spec, g *workload.Generator, calls int, put putFn) {
	env := sim.NewEnv()
	cfg := sp.cfg()
	mgr, _, _ := storage(sp, env, cfg.ServerMem)
	st := store.New(env, mgr)
	keys := sp.keys * max(cfg.ReplicationFactor, 1) / cfg.Servers
	runProc(env, func(p *sim.Proc) {
		for i := 0; i < keys; i++ {
			st.Set(p, g.Key(i), sp.valueSize, i, 0, 0)
		}
	})
	own := workload.New(workload.Config{
		Keys: keys, ValueSize: sp.valueSize, ReadFraction: sp.readFrac,
		Pattern: sp.pattern, Seed: g.Config().Seed,
	})
	var set, get mean
	ns, allocs := hostCost(calls, func() {
		runProc(env, func(p *sim.Proc) {
			for i := 0; i < calls; i++ {
				kind, key := own.Next()
				t0 := p.Now()
				if kind == workload.OpSet {
					st.Set(p, key, sp.valueSize, i, 0, 0)
					set.add(p.Now() - t0)
				} else {
					st.Get(p, key)
					get.add(p.Now() - t0)
				}
			}
		})
	})
	put("store.iso_set_us", set.us(), "us")
	put("store.iso_get_us", get.us(), "us")
	put("store.iso_op_ns", ns, "ns")
	put("store.iso_op_allocs", allocs, "count")

	// The workloads never let a GET overlap a SET of its key (recorder.order).
	// Here they do: as many callers as a server has storage workers share 16
	// of the preloaded keys. A reply such a key must never get, NOT_FOUND or
	// OK with no value, is the seed commit's known defect (README).
	rng := rand.New(rand.NewSource(g.Config().Seed))
	raced := 0
	for w := 0; w < 4; w++ {
		env.Spawn("iso-race", func(p *sim.Proc) {
			for i := 0; i < calls/4; i++ {
				key := g.Key(rng.Intn(16) * keys / 16)
				if rng.Intn(2) == 0 {
					st.Set(p, key, sp.valueSize, i, 0, 0)
				} else if v, _, _, _, status := st.Get(p, key); status != protocol.StatusOK || v == nil {
					raced++
				}
			}
		})
	}
	env.Run()
	put("store.iso_race_failed", float64(raced), "count")
}

// isoHybridslab overfills a 4 MB slab manager with the workload's values:
// Store calls that had to flush a slab page give the eviction cost, Loads of
// items that landed on the SSD the in-place read cost.
func isoHybridslab(sp *spec, calls int, put putFn) {
	env := sim.NewEnv()
	mgr, _, _ := storage(sp, env, 4<<20)
	items := make([]*hybridslab.Item, calls)
	var evict, ssdGet mean
	runProc(env, func(p *sim.Proc) {
		for i := range items {
			items[i] = &hybridslab.Item{Key: "iso:" + strconv.Itoa(i), Value: i, ValueSize: sp.valueSize}
			flushed, t0 := mgr.FlushPages, p.Now()
			if err := mgr.Store(p, items[i]); err != nil {
				panic("benchmark: hybridslab store: " + err.Error())
			}
			if mgr.FlushPages > flushed {
				evict.add(p.Now() - t0)
			}
		}
		for _, it := range items {
			if !it.OnSSD() {
				continue
			}
			t0 := p.Now()
			if _, err := mgr.Load(p, it); err == nil {
				ssdGet.add(p.Now() - t0)
			}
		}
	})
	put("hybridslab.iso_evict_us", evict.us(), "us")
	put("hybridslab.iso_ssd_get_us", ssdGet.us(), "us")
}

// isoPagecache writes value-sized extents over a file four times the cache,
// then reads them back at random: reads that the cache's own counters class
// as hits and as misses are timed apart.
func isoPagecache(sp *spec, rng *rand.Rand, calls int, put putFn) {
	env := sim.NewEnv()
	_, cache, _ := storage(sp, env, 4<<20)
	par := cache.Params()
	scheme := pagecache.Cached
	if sp.valueSize <= 16<<10 {
		scheme = pagecache.Mmap // the adaptive policy's choice below its cutoff
	}
	stride := int64((sp.valueSize + par.PageSize - 1) / par.PageSize * par.PageSize)
	extents := max(int(4*int64(par.MaxPages)*int64(par.PageSize)/stride), 64)
	file := cache.OpenFile(0, int64(extents)*stride)
	var write, hit, miss mean
	ns, _ := hostCost(2*calls, func() {
		runProc(env, func(p *sim.Proc) {
			for i := 0; i < calls; i++ {
				t0 := p.Now()
				file.Write(p, int64(i%extents)*stride, sp.valueSize, i, scheme)
				write.add(p.Now() - t0)
			}
			for i := 0; i < calls; i++ {
				hits, t0 := cache.Hits, p.Now()
				file.Read(p, int64(rng.Intn(extents))*stride, sp.valueSize, scheme)
				if cache.Hits > hits {
					hit.add(p.Now() - t0)
				} else {
					miss.add(p.Now() - t0)
				}
			}
		})
	})
	put("pagecache.iso_write_us", write.us(), "us")
	put("pagecache.iso_read_hit_us", hit.us(), "us")
	put("pagecache.iso_read_miss_us", miss.us(), "us")
	put("pagecache.iso_op_ns", ns, "ns")
}

// isoBlockdev keeps as many commands outstanding as the drive has channels:
// value-sized reads and 1 MB writes (a slab page flush), with seeded gaps.
func isoBlockdev(sp *spec, rng *rand.Rand, calls int, put putFn) {
	env := sim.NewEnv()
	_, _, dev := storage(sp, env, 4<<20)
	callers := dev.Profile().Channels
	per := calls / callers
	var read, write mean
	for c := 0; c < callers; c++ {
		env.Spawn("iso-io", func(p *sim.Proc) {
			for i := 0; i < per; i++ {
				p.Sleep(sim.Time(rng.Intn(int(20 * sim.Microsecond))))
				off := int64(rng.Intn(1<<20)) << 12
				t0 := p.Now()
				if rng.Float64() < sp.readFrac {
					dev.ReadAt(p, off, sp.valueSize)
					read.add(p.Now() - t0)
				} else {
					dev.WriteAt(p, off, 1<<20, nil)
					write.add(p.Now() - t0)
				}
			}
		})
	}
	ns, _ := hostCost(per*callers, func() { env.Run() })
	put("blockdev.iso_read_us", read.us(), "us")
	put("blockdev.iso_write_us", write.us(), "us")
	put("blockdev.iso_op_ns", ns, "ns")
}

// isoSim times the kernel's three primitives: a timer (Sleep round trip), a
// handoff (Queue put to get across two procs) and a spawn (Spawn to the new
// proc's exit).
func isoSim(calls int, put putFn) {
	env := sim.NewEnv()
	timerNS, timerAllocs := hostCost(calls, func() {
		runProc(env, func(p *sim.Proc) {
			for i := 0; i < calls; i++ {
				p.Sleep(sim.Microsecond)
			}
		})
	})
	q, back := sim.NewQueue[int](env, 0), sim.NewQueue[int](env, 0)
	env.Spawn("iso-echo", func(p *sim.Proc) {
		for i := 0; i < calls; i++ {
			v, _ := q.Get(p)
			back.TryPut(v)
		}
	})
	handoffNS, handoffAllocs := hostCost(2*calls, func() {
		runProc(env, func(p *sim.Proc) {
			for i := 0; i < calls; i++ {
				q.TryPut(i)
				back.Get(p)
			}
		})
	})
	spawnNS, spawnAllocs := hostCost(calls, func() {
		runProc(env, func(p *sim.Proc) {
			for i := 0; i < calls; i++ {
				env.Spawn("iso-child", func(*sim.Proc) {})
				p.Yield()
			}
		})
	})
	put("sim.iso_timer_ns", timerNS, "ns")
	put("sim.iso_handoff_ns", handoffNS, "ns")
	put("sim.iso_spawn_ns", spawnNS, "ns")
	// One event is one wakeup delivered: a timer is one, a handoff leg one,
	// a spawn-and-yield two.
	put("sim.iso_allocs_per_event", (timerAllocs+2*handoffAllocs+spawnAllocs)/5, "count")
}

func isoWorkload(g *workload.Generator, calls int, put putFn) {
	sink := 0
	ns, allocs := hostCost(calls, func() {
		for i := 0; i < calls; i++ {
			_, key := g.Next()
			sink += len(key)
		}
	})
	runtime.KeepAlive(sink)
	put("workload.iso_next_ns", ns, "ns")
	put("workload.iso_allocs", allocs, "count")
}
