package bench

import (
	"errors"
	"fmt"

	"hybridkv/internal/cluster"
	"hybridkv/internal/core"
	"hybridkv/internal/history"
	"hybridkv/internal/metrics"
	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
	"hybridkv/internal/workload"
)

// The hotkey experiment: a celebrity-key flash crowd — steady zipf traffic,
// then a burst window in which nearly every client asks for the same key —
// driven against three read paths: plain RPC, server-bypass READs, and
// bypass with hot-key replicated-read fan-out. Without fan-out every
// celebrity GET lands on the key's primary, so the burst saturates one
// server's egress while its replicas idle; with fan-out the servers' sketches
// detect the key (fed by the 1-in-N RPC heat sample), the crawler publishes
// it, clients learn it on their next piggybacked directory refresh, and the
// burst spreads across the whole replica set. The headline is the R=3
// goodput ratio of fan-out over plain bypass. A separate chaos cell re-runs
// the CAS-chain history checker under fan-out plus whole-node kills: spread
// reads must never surface a value older than the last acked write.

const (
	hotServers   = 3
	hotClients   = 3
	hotWorkers   = 8 // per client
	hotKeys      = 384
	hotValueSize = 8 << 10

	// Arrival: steady zipf at hotThink per worker, then a hotSpike× flash
	// crowd for most of the run. During the burst 7 of 8 ops target the
	// celebrity key.
	hotThink      = 8 * sim.Microsecond
	hotSpike      = 16.0
	hotBurstStart = 500 * sim.Microsecond
	hotBurstLen   = 40 * sim.Millisecond

	// hotCrawl is the per-server LRU-crawler cadence; each pass also
	// distills the access sketch into the published hot set.
	hotCrawl = 200 * sim.Microsecond
)

// hotRun is one measured cell.
type hotRun struct {
	GetLat  *metrics.Hist
	Ops     int64
	OK      int64
	Elapsed sim.Time
	Stats   core.ClientStats // summed over clients
}

func (r *hotRun) kops() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.OK) / (float64(r.Elapsed) / float64(sim.Second)) / 1e3
}

func (r *hotRun) fallbackPct() float64 {
	total := r.Stats.BypassHits + r.Stats.BypassFallbacks
	if total == 0 {
		return 0
	}
	return 100 * float64(r.Stats.BypassFallbacks) / float64(total)
}

// runHotkey executes one cell: preload, start the crawlers, drive the flash
// crowd, and stop the crawlers once every driver has finished (a supervisor
// waits on a done queue — the periodic crawlers would otherwise keep the
// simulation from draining).
func runHotkey(bypass, fanout bool, replicas, ops int) *hotRun {
	cl := cluster.New(cluster.Config{
		Design:            cluster.HRDMAOptNonBI,
		Profile:           cluster.ClusterA(),
		Servers:           hotServers,
		Clients:           hotClients,
		ServerMem:         16 << 20, // dataset fits: no eviction noise
		ReplicationFactor: replicas,
		Bypass:            bypass,
		HotFanout:         fanout,
	})
	cl.Preload(hotKeys, hotValueSize, keyOf)
	celeb := keyOf(0)

	for _, s := range cl.Servers {
		if err := s.Store().StartCrawler(hotCrawl, 4096); err != nil {
			panic("bench: hotkey crawler: " + err.Error())
		}
	}

	arr := workload.Arrival{
		Schedule: workload.FlashCrowd, Base: hotThink,
		Spike: hotSpike, BurstStart: hotBurstStart, BurstLen: hotBurstLen,
	}
	run := &hotRun{GetLat: metrics.NewHist()}
	drivers := hotClients * hotWorkers
	perWorker := ops / drivers
	run.Ops = int64(perWorker * drivers)
	done := sim.NewQueue[int](cl.Env, 0)
	start := cl.Env.Now()

	for ci := 0; ci < hotClients; ci++ {
		c := cl.Clients[ci]
		for w := 0; w < hotWorkers; w++ {
			gen := workload.New(workload.Config{
				Keys: hotKeys, ValueSize: hotValueSize, ReadFraction: 0.95,
				Pattern: workload.Zipf, ZipfS: zipfFits,
				Seed: int64(1000 + ci*hotWorkers + w),
			})
			cl.Env.Spawn(fmt.Sprintf("hot-drv-c%d-w%d", ci, w), func(p *sim.Proc) {
				defer done.TryPut(1)
				for i := 0; i < perWorker; i++ {
					rel := p.Now() - start
					kind, key := workload.OpGet, celeb
					if !arr.InBurst(rel) || i%8 == 0 {
						kind, key = gen.Next()
					}
					if kind == workload.OpSet {
						req, err := c.Issue(p, core.Op{
							Code: protocol.OpSet, Key: key,
							ValueSize: hotValueSize, Value: key,
						})
						if err != nil {
							panic("bench: hotkey set issue: " + err.Error())
						}
						c.Wait(p, req)
						if req.Status == protocol.StatusStored {
							run.OK++
						}
					} else {
						t0 := p.Now()
						req, err := c.Issue(p, core.Op{Code: protocol.OpGet, Key: key})
						if err != nil {
							panic("bench: hotkey get issue: " + err.Error())
						}
						c.Wait(p, req)
						run.GetLat.Add(p.Now() - t0)
						if req.Status == protocol.StatusOK {
							run.OK++
						}
					}
					p.Sleep(arr.Think(p.Now() - start))
				}
			})
		}
	}
	cl.Env.Spawn("hot-supervisor", func(p *sim.Proc) {
		for i := 0; i < drivers; i++ {
			done.Get(p)
		}
		run.Elapsed = p.Now() - start
		for _, s := range cl.Servers {
			s.Store().StopCrawler()
		}
	})
	cl.Env.Run()
	for _, c := range cl.Clients {
		st := c.Stats()
		run.Stats.BypassHits += st.BypassHits
		run.Stats.BypassFallbacks += st.BypassFallbacks
		run.Stats.BypassReprobes += st.BypassReprobes
		run.Stats.BypassReads += st.BypassReads
		run.Stats.BypassHitReads += st.BypassHitReads
		run.Stats.BypassHitReadBytes += st.BypassHitReadBytes
		run.Stats.BypassReadDoorbells += st.BypassReadDoorbells
		run.Stats.HotFanouts += st.HotFanouts
		run.Stats.HotRefreshes += st.HotRefreshes
		run.Stats.HotSamples += st.HotSamples
	}
	return run
}

// runHotChaos is the safety cell: R=3 with bypass + fan-out, CAS-chain
// writers and auto-path readers hammering a handful of keys hot, whole-node
// kills (RAM-only, then RAM+SSD) mid-run, and the replicated history checker
// over every logged operation. Fan-out must never surface a stale read:
// every replica applies an acked write before the client sees the ack, and a
// cold-recovered node withholds suspect keys from both read paths.
func runHotChaos(rounds int) (log *history.Log, fanouts int64) {
	const (
		writers  = 3
		keysPerW = 2
		readers  = 3
		valSize  = 4 << 10
	)
	cl := cluster.New(cluster.Config{
		Design:            cluster.HRDMAOptNonBI,
		Profile:           cluster.ClusterA(),
		Servers:           hotServers,
		Clients:           1,
		ServerMem:         8 << 20,
		ReplicationFactor: 3,
		Bypass:            true,
		HotFanout:         true,
	})
	for _, s := range cl.Servers {
		if err := s.Store().StartCrawler(hotCrawl, 4096); err != nil {
			panic("bench: hotkey chaos crawler: " + err.Error())
		}
	}
	c := cl.Clients[0]
	rp := core.RetryPolicy{
		MaxAttempts:    8,
		AttemptTimeout: 8 * sim.Millisecond,
		Backoff:        100 * sim.Microsecond,
		MaxBackoff:     2 * sim.Millisecond,
		Jitter:         -1,
		Seed:           17,
		Failover:       true,
	}
	guard := []core.IssueOption{core.WithDeadline(60 * sim.Millisecond), core.WithRetry(rp)}

	log = &history.Log{Replicated: true}
	expected := 0
	drivers := writers + readers
	done := sim.NewQueue[int](cl.Env, 0)

	// Warm-up: the chaos cell tests safety under fan-out, not detection
	// latency (the perf cells own that), so push the six contended keys over
	// the sketch threshold with forced-RPC reads, give the crawler a pass to
	// publish, and drive enough GET issues past the refresh pacing that the
	// client has learned the set before any driver starts. Nothing here is
	// logged.
	warm := cl.Env.NewEvent()
	cl.Env.Spawn("hot-chaos-warm", func(p *sim.Proc) {
		seed := func(n int) {
			for i := 0; i < n; i++ {
				key := fmt.Sprintf("hot:w%d:k%d", i%writers, (i/writers)%keysPerW)
				req, err := c.Issue(p, core.Op{Code: protocol.OpGet, Key: key},
					core.WithReadPath(core.ReadRPC))
				if err != nil {
					panic("bench: hotkey chaos warm: " + err.Error())
				}
				c.Wait(p, req)
			}
		}
		seed(256)                     // heat the sketch (and trip one refresh)
		p.Sleep(2 * hotCrawl)         // let a crawl pass publish the set
		seed(256)                     // the refresh this trips learns it
		p.Sleep(50 * sim.Microsecond) // let the refresh response land
		warm.Fire()
	})

	// Writers: per-key CAS chains, sequence number as value. A fanned-out
	// read may return a backup's CAS token, which the primary rejects — the
	// chain just re-syncs next round; what it must never do is return a seq
	// older than the last acked write.
	for w := 0; w < writers; w++ {
		w := w
		expected += rounds * 2
		cl.Env.Spawn(fmt.Sprintf("hot-chaos-writer%d", w), func(p *sim.Proc) {
			defer done.TryPut(1)
			p.Wait(warm)
			next := make([]uint64, keysPerW)
			for r := 0; r < rounds; r++ {
				ki := r % keysPerW
				key := fmt.Sprintf("hot:w%d:k%d", w, ki)
				t0 := p.Now()
				rreq, err := c.Issue(p, core.Op{Code: protocol.OpGet, Key: key}, guard...)
				if err != nil {
					panic("bench: hotkey chaos read: " + err.Error())
				}
				c.Wait(p, rreq)
				rerr := rreq.Err()
				hit := rerr == nil
				var seq uint64
				if hit {
					seq, _ = rreq.Value.(uint64)
				}
				log.Record(history.Entry{
					Worker: w, Kind: history.Read, Key: key, Seq: seq,
					Hit: hit, OK: hit || errors.Is(rerr, core.ErrNotFound),
					IssuedAt: t0, CompletedAt: p.Now(),
				})

				next[ki]++
				seqW := next[ki]
				op := core.Op{Code: protocol.OpAdd, Key: key, ValueSize: valSize, Value: seqW}
				if hit {
					op = core.Op{Code: protocol.OpCAS, Key: key, ValueSize: valSize, Value: seqW, CAS: rreq.CAS}
				}
				t1 := p.Now()
				wreq, err := c.Issue(p, op, guard...)
				if err != nil {
					panic("bench: hotkey chaos write: " + err.Error())
				}
				c.Wait(p, wreq)
				werr := wreq.Err()
				log.Record(history.Entry{
					Worker: w, Kind: history.Write, Key: key, Seq: seqW,
					OK:       werr == nil,
					Acked:    wreq.Acked() && (werr == nil || errors.Is(werr, core.ErrDeadlineExceeded)),
					IssuedAt: t1, CompletedAt: p.Now(),
				})
				p.Sleep(120 * sim.Microsecond)
			}
		})
	}

	// Readers: auto-path GETs over the same six keys — hammering them hot so
	// the sampled sketch publishes them and reads fan out mid-kill-schedule.
	for rd := 0; rd < readers; rd++ {
		rd := rd
		expected += rounds * 2
		cl.Env.Spawn(fmt.Sprintf("hot-chaos-reader%d", rd), func(p *sim.Proc) {
			defer done.TryPut(1)
			p.Wait(warm)
			for r := 0; r < rounds*2; r++ {
				key := fmt.Sprintf("hot:w%d:k%d", (rd+r)%writers, r%keysPerW)
				t0 := p.Now()
				req, err := c.Issue(p, core.Op{Code: protocol.OpGet, Key: key}, guard...)
				if err != nil {
					panic("bench: hotkey chaos reader: " + err.Error())
				}
				c.Wait(p, req)
				rerr := req.Err()
				hit := rerr == nil
				var seq uint64
				if hit {
					seq, _ = req.Value.(uint64)
				}
				log.Record(history.Entry{
					Worker: writers + rd, Kind: history.Read, Key: key, Seq: seq,
					Hit: hit, OK: hit || errors.Is(rerr, core.ErrNotFound),
					IssuedAt: t0, CompletedAt: p.Now(),
				})
				p.Sleep(40 * sim.Microsecond)
			}
		})
	}

	// Kill schedule: server 0 loses RAM (SSD intact — recovered keys are
	// suspect until confirmed), later server 1 loses everything.
	cl.Env.Spawn("hot-chaos-kills", func(p *sim.Proc) {
		p.Wait(warm)
		s0, s1 := cl.Servers[0], cl.Servers[1]
		p.Sleep(3 * sim.Millisecond)
		from := p.Now()
		s0.Kill(false)
		p.Sleep(300 * sim.Microsecond)
		s0.RestartCold()
		for s0.Recovering() {
			p.Sleep(100 * sim.Microsecond)
		}
		log.CrashWindow(from, p.Now())

		p.Sleep(4 * sim.Millisecond)
		from = p.Now()
		s1.Kill(true)
		p.Sleep(300 * sim.Microsecond)
		s1.RestartCold()
		for s1.Recovering() {
			p.Sleep(100 * sim.Microsecond)
		}
		log.CrashWindow(from, p.Now())
	})

	cl.Env.Spawn("hot-chaos-supervisor", func(p *sim.Proc) {
		for i := 0; i < drivers; i++ {
			done.Get(p)
		}
		for _, s := range cl.Servers {
			s.Store().StopCrawler()
		}
	})
	cl.Env.Run()
	log.Expected = expected
	return log, c.Stats().HotFanouts
}

// hotkeyExp is the registry entry: {rpc, bypass, fanout} × R ∈ {1,2,3}, plus
// the fan-out chaos cell. Headlines: fanout_speedup_r3 (goodput of fan-out
// over plain bypass at R=3) and chaos.violations (must be zero).
func hotkeyExp(o Options) *Result {
	res := newResult("hotkey",
		"Hot-key serving: celebrity flash crowd vs replicated-read fan-out")
	ops := o.ops(14400)

	thr := &metrics.Series{Name: "goodput kops"}
	p99 := &metrics.Series{Name: "p99 µs"}
	fan := &metrics.Series{Name: "fanouts"}
	fb := &metrics.Series{Name: "fallback%"}

	paths := []struct {
		name   string
		bypass bool
		fanout bool
	}{
		{"rpc", false, false},
		{"bypass", true, false},
		{"fanout", true, true},
	}
	for _, r := range []int{1, 2, 3} {
		for _, path := range paths {
			name := fmt.Sprintf("%s.R%d", path.name, r)
			run := runHotkey(path.bypass, path.fanout, r, ops)

			thr.Append(name, run.kops())
			p99.Append(name, us(run.GetLat.Quantile(0.99)))
			fan.Append(name, float64(run.Stats.HotFanouts))
			fb.Append(name, run.fallbackPct())

			res.metric(name+".goodput_kops", run.kops())
			res.metric(name+".get_us", us(run.GetLat.Mean()))
			res.metric(name+".get_p99_us", us(run.GetLat.Quantile(0.99)))
			res.metric(name+".ok", float64(run.OK))
			if path.bypass {
				res.metric(name+".fallback_pct", run.fallbackPct())
				res.metric(name+".reprobes", float64(run.Stats.BypassReprobes))
				res.metric(name+".reads", float64(run.Stats.BypassReads))
				res.metric(name+".read_doorbells", float64(run.Stats.BypassReadDoorbells))
				res.metric(name+".reads_per_hit", perBypassHit(run.Stats.BypassHitReads, &run.Stats))
				res.metric(name+".read_bytes_per_hit", perBypassHit(run.Stats.BypassHitReadBytes, &run.Stats))
				res.metric(name+".hot_samples", float64(run.Stats.HotSamples))
				res.metric(name+".hot_refreshes", float64(run.Stats.HotRefreshes))
			}
			if path.fanout {
				res.metric(name+".fanouts", float64(run.Stats.HotFanouts))
			}
		}
	}
	res.metric("fanout_speedup_r3",
		res.Metrics["fanout.R3.goodput_kops"]/res.Metrics["bypass.R3.goodput_kops"])

	// Safety cell: the replicated history checker under fan-out + kills.
	rounds := o.ops(420) / (writersPlusReaders())
	if rounds < 8 {
		rounds = 8
	}
	log, fanouts := runHotChaos(rounds)
	viol := log.Check()
	res.metric("chaos.violations", float64(len(viol)))
	res.metric("chaos.entries", float64(len(log.Entries)))
	res.metric("chaos.fanouts", float64(fanouts))
	detail := ""
	for _, v := range viol {
		detail += fmt.Sprintf("VIOLATION fanout-chaos: %v\n", v)
	}

	res.Output = res.addTable(res.Title, thr, p99, fan, fb) + detail + res.renderMetrics()
	return res
}

// writersPlusReaders is the chaos cell's logged entries per round (3 writers
// × 2 + 3 readers × 2).
func writersPlusReaders() int { return 3*2 + 3*2 }
