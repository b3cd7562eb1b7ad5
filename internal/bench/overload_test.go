package bench

import (
	"hybridkv/internal/metrics"
	"testing"

	"hybridkv/internal/cluster"
)

const (
	overTestMem = 16 << 20
	overTestKV  = 8 << 10
	overTestOps = 300
)

// overTestCell is a two-server cell of the overload geometry with the
// given admission switch, preloaded with dataBytes, driven by drive over
// the overload workload.
func overTestCell(d cluster.Design, over bool, dataBytes int,
	drive func(*cluster.Cluster, *spec, *run)) cell {
	sp := &spec{Config: cluster.Config{
		Design: d, Profile: cluster.ClusterA(), Servers: 2,
		ServerMem: overTestMem / 2, StorageWorkers: overWorkers,
		BufferBytes: overBufferBytes, Overload: over,
	}, keys: dataBytes / overTestKV, kv: overTestKV}
	return cell{spec: sp, drive: func(cl *cluster.Cluster, r *run) { drive(cl, sp, r) }}
}

func overloadRun(t *testing.T, d cluster.Design, ops int, protected bool) *run {
	t.Helper()
	return runCell(t, overloadCell(d, overTestMem, overTestKV, ops, protected))
}

// With protection disabled, the admission layer must be invisible: a
// non-blocking run that fills the buffer takes the blocking-reservation path
// — it sheds nothing, and replays to the same virtual time and misses.
func TestOverloadDisabledIsPlain(t *testing.T) {
	nonb := func(cl *cluster.Cluster, sp *spec, r *run) { closedLoop(cl, sp.gen(uniform(0.5, 7)), overTestOps, r) }
	r1 := runCell(t, overTestCell(cluster.HRDMAOptNonBI, false, overTestMem*3/2, nonb))
	r2 := runCell(t, overTestCell(cluster.HRDMAOptNonBI, false, overTestMem*3/2, nonb))

	if r1.Elapsed != r2.Elapsed {
		t.Errorf("disabled admission changed timing: %v vs %v", r1.Elapsed, r2.Elapsed)
	}
	if r1.Misses != r2.Misses {
		t.Errorf("disabled admission changed misses: %d vs %d", r1.Misses, r2.Misses)
	}
	if r2.ShedSets != 0 || r2.ShedGets != 0 {
		t.Errorf("disabled admission shed %d/%d requests", r2.ShedSets, r2.ShedGets)
	}
}

// Enabled admission under light load must also be timing-identical to the
// blocking path: a sequential (closed-loop, depth-1) run never crosses a
// watermark, and an uncontended TryAcquireN costs exactly what an
// uncontended AcquireN does.
func TestOverloadEnabledLightLoadParity(t *testing.T) {
	// One op at a time on a fits-in-memory dataset: no storage queue.
	block := func(cl *cluster.Cluster, sp *spec, r *run) {
		driveBatched(cl, sp.gen(uniform(0.5, 7)), overTestOps, 1, r)
	}
	r1 := runCell(t, overTestCell(cluster.HRDMAOptNonBB, false, overTestMem/2, block))
	r2 := runCell(t, overTestCell(cluster.HRDMAOptNonBB, true, overTestMem/2, block))

	if r1.Elapsed != r2.Elapsed {
		t.Errorf("light-load admission changed timing: %v vs %v", r1.Elapsed, r2.Elapsed)
	}
	if sheds := r2.ShedSets + r2.ShedGets; sheds != 0 {
		t.Errorf("light sequential load shed %d requests", sheds)
	}
}

// The tentpole acceptance check at test scale: under the bursty schedule on
// an async hybrid design, protection sheds SETs (never silently), keeps the
// storage-queue peak at or under the unprotected one, and bounds admitted-GET
// p99 below the unprotected run's.
func TestOverloadProtectionBoundsGetTail(t *testing.T) {
	d := cluster.HRDMAOptNonBB
	ops := 240

	off := overloadRun(t, d, ops, false)
	on := overloadRun(t, d, ops, true)

	if off.ShedSets+off.ShedGets != 0 {
		t.Errorf("unprotected run shed %d/%d", off.ShedSets, off.ShedGets)
	}
	if on.ShedSets == 0 {
		t.Error("protected run shed nothing: burst never crossed the SET watermark")
	}
	if on.Clients.Val(metrics.CBusy) == 0 {
		t.Error("no busy responses observed by the client")
	}
	if on.QueuePeak > off.QueuePeak {
		t.Errorf("protected queue peak %d exceeds unprotected %d", on.QueuePeak, off.QueuePeak)
	}
	offP99 := off.GetLat.Quantile(0.99)
	onP99 := on.GetLat.Quantile(0.99)
	if onP99 >= offP99 {
		t.Errorf("admitted-GET p99 not improved: on %v >= off %v", onP99, offP99)
	}
	if on.Failed != 0 {
		t.Errorf("protected run failed %d ops: retries did not absorb shedding", on.Failed)
	}
}

// Priority shedding: when both classes are past their watermarks the server
// rejects SETs strictly before GETs — at test scale GET sheds stay zero
// while SET sheds engage.
func TestOverloadShedsSetsBeforeGets(t *testing.T) {
	on := overloadRun(t, cluster.HRDMAOptNonBI, 240, true)
	if on.ShedSets == 0 {
		t.Fatal("no SETs shed")
	}
	if on.ShedGets > on.ShedSets {
		t.Errorf("GET sheds %d exceed SET sheds %d: priority inverted", on.ShedGets, on.ShedSets)
	}
}

// The overload run is deterministic: identical seeds and schedules replay to
// identical virtual time and counters.
func TestOverloadDeterministic(t *testing.T) {
	r1 := overloadRun(t, cluster.HRDMAOptNonBB, 240, true)
	r2 := overloadRun(t, cluster.HRDMAOptNonBB, 240, true)
	if r1.Elapsed != r2.Elapsed || r1.OK != r2.OK || r1.ShedSets != r2.ShedSets ||
		r1.Clients.Val(metrics.CBusy) != r2.Clients.Val(metrics.CBusy) {
		t.Errorf("overload run not deterministic: (%v,%d,%d,%d) vs (%v,%d,%d,%d)",
			r1.Elapsed, r1.OK, r1.ShedSets, r1.Clients.Val(metrics.CBusy),
			r2.Elapsed, r2.OK, r2.ShedSets, r2.Clients.Val(metrics.CBusy))
	}
}

// A busy response must carry a non-zero retry-after hint and the client must
// floor its backoff with it (the hint is in wire microseconds).
func TestOverloadRetryAfterHintFlows(t *testing.T) {
	on := overloadRun(t, cluster.HRDMAOptNonBB, 240, true)
	if on.ShedSets == 0 {
		t.Skip("burst did not shed at this scale")
	}
	// The hint unit is the server's retryAfterUnit; any shed op's guard
	// must have slept at least that long before its successful retry, so
	// the run's elapsed must exceed the no-backoff floor. Cheap proxy:
	// retries happened and nothing failed.
	if on.Clients.Val(metrics.CRetries) == 0 {
		t.Error("sheds without retries: busy nudge path dead")
	}
	if on.Failed != 0 {
		t.Errorf("%d ops failed despite retry-after guidance", on.Failed)
	}
}

// Registry shape check (mirrors TestFaultsExperimentShape).
func TestOverloadExperimentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("overload experiment is slow")
	}
	r := runExp(t, "overload", quick())
	for _, d := range []cluster.Design{cluster.HRDMAOptNonBB, cluster.HRDMAOptNonBI} {
		name := d.String()
		if metric(t, r, name+".on_shed_sets") == 0 {
			t.Errorf("%s: protected phase shed nothing", name)
		}
		if metric(t, r, name+".off_get_p99_us") <= metric(t, r, name+".on_get_p99_us") {
			t.Errorf("%s: protection did not bound GET p99 (off %v vs on %v)",
				name, metric(t, r, name+".off_get_p99_us"), metric(t, r, name+".on_get_p99_us"))
		}
	}
	if r.Output == "" {
		t.Error("no output table")
	}
}
