package main

import (
	"hybridkv/internal/cluster"
	"hybridkv/internal/metrics"
	"hybridkv/internal/sim"
)

// snapshot is every layer's public counters, summed over the deployment's
// nodes, read from outside the program at one instant. Per-layer metrics are
// differences of two snapshots around the measured phase, so nothing under
// internal/ is instrumented.
type snapshot struct {
	// core (summed over clients)
	sends, frames                         int64
	retries, rejects                      int64
	bypassHits, bypassFast, bypassFalls   int64
	bypassReprobes, bypassReads, bypassDB int64
	hotFanouts                            int64

	// verbs (server HCAs)
	srvSends, srvWrites int64

	// simnet
	msgs, netBytes, dropped int64

	// server
	requests, acks, batches, shed, discarded int64
	bufferPeak, queuePeak                    int

	// store
	getOps, getHits, setOps                     int64
	slabAlloc, cacheLoad, cacheUpdate, response sim.Time

	// hybridslab
	flushPages, flushWrites, ssdLoads, mgrGets int64
	allocStalls, dropEvictions, compactions    int64
	flushTime, ssdLoadTime                     sim.Time
	ssdUsed                                    int64

	// slab (levels, not counters)
	slabLive, slabUsed float64

	// pagecache
	pcHits, pcMisses, pcFaults, pcWriteback, pcThrottle int64
	pcDirty                                             int

	// blockdev
	devReads, devWrites, devBytesRead, devBytesWrite int64
	devBusy                                          sim.Time

	// replication
	forwards, fwdResends, repairPushes, repairPulls int64
	epochConflicts, scrubRounds                     int64
}

func snap(cl *cluster.Cluster) *snapshot {
	s := &snapshot{}
	for _, c := range cl.Clients {
		st := c.Stats()
		s.sends += st.Sends
		s.frames += st.Frames
		s.retries += st.Retries + st.Timeouts + st.Failovers + st.Hedges
		s.rejects += st.Busy + st.Recovering + st.NoReplica
		s.bypassHits += st.BypassHits
		s.bypassFast += st.BypassFastPath
		s.bypassFalls += st.BypassFallbacks
		s.bypassReprobes += st.BypassReprobes
		s.bypassReads += st.BypassReads
		s.bypassDB += st.BypassReadDoorbells
		s.hotFanouts += st.HotFanouts
	}
	s.msgs, s.netBytes, s.dropped = cl.Fabric.MsgCount, cl.Fabric.ByteCount, cl.Fabric.Dropped
	for _, srv := range cl.Servers {
		dev := srv.Device()
		s.srvSends += dev.SendsPosted
		s.srvWrites += dev.WritesPosted
		s.requests += srv.Requests
		s.acks += srv.Acks
		s.batches += srv.Batches
		s.shed += srv.ShedSets + srv.ShedGets
		s.discarded += srv.Discarded
		s.bufferPeak = max(s.bufferPeak, srv.BufferPeak)
		s.queuePeak = max(s.queuePeak, srv.QueuePeak)

		st := srv.Store()
		s.getOps += st.GetOps
		s.getHits += st.GetHits
		s.setOps += st.SetOps
		s.slabAlloc += st.Prof.Total(metrics.StageSlabAlloc)
		s.cacheLoad += st.Prof.Total(metrics.StageCacheLoad)
		s.cacheUpdate += st.Prof.Total(metrics.StageCacheUpdate)
		s.response += st.Prof.Total(metrics.StageResponse)

		m := st.Manager()
		s.flushPages += m.FlushPages
		s.flushWrites += m.FlushWrites
		s.ssdLoads += m.SSDLoads
		s.mgrGets += m.Gets
		s.allocStalls += m.AllocStalls
		s.dropEvictions += m.DropEvictions
		s.compactions += m.Compactions
		s.flushTime += m.FlushTime
		s.ssdLoadTime += m.SSDLoadTime
		s.ssdUsed += m.SSDUsed()
		a := m.Allocator()
		s.slabUsed += float64(a.MemUsed())
		s.slabLive += a.Utilization() * float64(a.MemUsed())
	}
	for _, pc := range cl.Caches {
		s.pcHits += pc.Hits
		s.pcMisses += pc.Misses
		s.pcFaults += pc.Faults
		s.pcWriteback += pc.WritebackPages
		s.pcThrottle += pc.ThrottleStalls
		s.pcDirty += pc.Dirty()
	}
	for _, d := range cl.Devices {
		s.devReads += d.Reads
		s.devWrites += d.Writes
		s.devBytesRead += d.BytesRead
		s.devBytesWrite += d.BytesWrite
		s.devBusy += d.BusyTime
	}
	rc := cl.ReplicationCounters()
	s.forwards = rc.Get("forwards")
	s.fwdResends = rc.Get("forward-resends")
	s.repairPushes = rc.Get("repair-pushes")
	s.repairPulls = rc.Get("repair-pulls")
	s.epochConflicts = rc.Get("epoch-conflicts")
	s.scrubRounds = rc.Get("scrub-rounds")
	return s
}

func us(t sim.Time) float64 { return float64(t) / float64(sim.Microsecond) }

const mb = 1 << 20

// counterMetrics derives the counter-based per-layer metrics of one measured
// phase from the snapshots around it. All of them are functions of the
// simulated run alone, so they repeat exactly for a given seed.
func counterMetrics(sp *spec, rec *recorder, b, a *snapshot, virtual sim.Time, devs int) map[string]metric {
	ops := float64(rec.attempted())
	gets, sets := float64(len(rec.get)), float64(len(rec.set))
	d := func(after, before int64) float64 { return float64(after - before) }
	dt := func(after, before sim.Time) float64 { return us(after - before) }

	hits := d(a.bypassHits, b.bypassHits)
	falls := d(a.bypassFalls, b.bypassFalls)
	reads := d(a.bypassReads, b.bypassReads)
	flushPages := d(a.flushPages, b.flushPages)
	ssdLoads := d(a.ssdLoads, b.ssdLoads)
	pcHits, pcMisses := d(a.pcHits, b.pcHits), d(a.pcMisses, b.pcMisses)
	devReads, devWrites := d(a.devReads, b.devReads), d(a.devWrites, b.devWrites)
	devices := float64(max(1, devs))

	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

	put("core.issue_us", ratio(us(rec.issueTime), ops), "us")
	put("core.wait_us", ratio(us(rec.waitTime), ops), "us")
	put("core.bypass_hit_share", ratio(hits, gets), "ratio")
	put("core.bypass_fallback_share", ratio(falls, hits+falls), "ratio")
	put("core.bypass_reads_per_hit", ratio(reads, hits), "count")
	put("core.bypass_fastpath_share", ratio(d(a.bypassFast, b.bypassFast), hits), "ratio")
	put("core.bypass_reprobes", d(a.bypassReprobes, b.bypassReprobes), "count")
	put("core.bypass_doorbells_per_read", ratio(d(a.bypassDB, b.bypassDB), reads), "count")
	put("core.hot_fanouts", d(a.hotFanouts, b.hotFanouts), "count")
	put("core.sends_per_op", ratio(d(a.sends, b.sends), ops), "count")
	put("core.frames", d(a.frames, b.frames), "count")
	put("core.retries", d(a.retries, b.retries), "count")
	put("core.rejects", d(a.rejects, b.rejects), "count")

	put("verbs.server_sends_per_op", ratio(d(a.srvSends, b.srvSends), ops), "count")
	put("verbs.server_writes_per_op", ratio(d(a.srvWrites, b.srvWrites), ops), "count")

	put("simnet.msgs_per_op", ratio(d(a.msgs, b.msgs), ops), "count")
	put("simnet.bytes_per_op", ratio(d(a.netBytes, b.netBytes), ops), "B")
	put("simnet.dropped", d(a.dropped, b.dropped), "count")

	requests := d(a.requests, b.requests)
	put("server.requests_per_op", ratio(requests, ops), "count")
	put("server.acks_per_op", ratio(d(a.acks, b.acks), ops), "count")
	put("server.batches", d(a.batches, b.batches), "count")
	put("server.buffer_peak_kb", float64(a.bufferPeak)/1024, "KB")
	put("server.queue_peak", float64(a.queuePeak), "count")
	put("server.shed_share", ratio(d(a.shed, b.shed), requests), "ratio")
	put("server.discarded", d(a.discarded, b.discarded), "count")

	put("store.get_hit_share", ratio(d(a.getHits, b.getHits), d(a.getOps, b.getOps)), "ratio")
	put("store.slab_alloc_us", ratio(dt(a.slabAlloc, b.slabAlloc), ops), "us")
	put("store.cache_load_us", ratio(dt(a.cacheLoad, b.cacheLoad), ops), "us")
	put("store.cache_update_us", ratio(dt(a.cacheUpdate, b.cacheUpdate), ops), "us")
	put("store.response_us", ratio(dt(a.response, b.response), ops), "us")

	put("hybridslab.flush_pages", flushPages, "count")
	put("hybridslab.flush_writes", d(a.flushWrites, b.flushWrites), "count")
	put("hybridslab.flush_us_per_page", ratio(dt(a.flushTime, b.flushTime), flushPages), "us")
	put("hybridslab.ssd_load_share", ratio(ssdLoads, d(a.mgrGets, b.mgrGets)), "ratio")
	put("hybridslab.ssd_load_us", ratio(dt(a.ssdLoadTime, b.ssdLoadTime), ssdLoads), "us")
	put("hybridslab.alloc_stalls", d(a.allocStalls, b.allocStalls), "count")
	put("hybridslab.drop_evictions", d(a.dropEvictions, b.dropEvictions), "count")
	put("hybridslab.ssd_used_mb", float64(a.ssdUsed)/mb, "MB")
	put("hybridslab.compactions", d(a.compactions, b.compactions), "count")

	put("slab.utilization", ratio(a.slabLive, a.slabUsed), "ratio")
	put("slab.mem_used_mb", a.slabUsed/mb, "MB")

	put("pagecache.hit_share", ratio(pcHits, pcHits+pcMisses), "ratio")
	put("pagecache.faults", d(a.pcFaults, b.pcFaults), "count")
	put("pagecache.writeback_pages", d(a.pcWriteback, b.pcWriteback), "count")
	put("pagecache.throttle_stalls", d(a.pcThrottle, b.pcThrottle), "count")
	put("pagecache.dirty_end_pages", float64(a.pcDirty), "count")

	put("blockdev.reads", devReads, "count")
	put("blockdev.writes", devWrites, "count")
	put("blockdev.read_kb_mean", ratio(d(a.devBytesRead, b.devBytesRead)/1024, devReads), "KB")
	put("blockdev.write_kb_mean", ratio(d(a.devBytesWrite, b.devBytesWrite)/1024, devWrites), "KB")
	put("blockdev.busy_share", ratio(dt(a.devBusy, b.devBusy), us(virtual)*devices), "ratio")
	put("blockdev.write_amp", ratio(d(a.devBytesWrite, b.devBytesWrite), sets*float64(sp.valueSize)), "ratio")

	put("replication.forwards_per_write", ratio(d(a.forwards, b.forwards), sets), "count")
	put("replication.forward_resends", d(a.fwdResends, b.fwdResends), "count")
	put("replication.repair_pushes", d(a.repairPushes, b.repairPushes), "count")
	put("replication.repair_pulls", d(a.repairPulls, b.repairPulls), "count")
	put("replication.epoch_conflicts", d(a.epochConflicts, b.epochConflicts), "count")
	put("replication.scrub_rounds", d(a.scrubRounds, b.scrubRounds), "count")

	put("sim.virtual_ms", float64(virtual)/float64(sim.Millisecond), "ms")
	put("driver.late_share", ratio(float64(rec.late), ops), "ratio")
	put("driver.key_wait_share", ratio(float64(rec.keyWaits), ops), "ratio")
	put("driver.key_wait_us", ratio(us(rec.keyWaitTime), ops), "us")
	put("driver.samples_get", gets, "count")
	put("driver.samples_set", sets, "count")
	return m
}
