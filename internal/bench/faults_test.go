package bench

import (
	"hybridkv/internal/metrics"
	"testing"

	"hybridkv/internal/cluster"
)

// faultRun runs one phase on the test geometry (32 MB over two servers,
// 1.5x overcommitted, 32 KB values), clean or faulted.
func faultRun(t *testing.T, d cluster.Design, ops int, faulted bool) *run {
	t.Helper()
	return runCell(t, faultTestCell(d, ops, faulted))
}

func faultTestCell(d cluster.Design, ops int, faulted bool) cell {
	return faultCell(d, 32<<20, 48<<20, 32<<10, ops, zipf(0.5, 5), faulted)
}

// A clean run must never engage the recovery machinery:
// no retries, no timeouts, no failures, nothing dropped.
func TestFaultedCleanRun(t *testing.T) {
	for _, d := range []cluster.Design{cluster.HRDMAOptBlock, cluster.HRDMAOptNonBI, cluster.IPoIBMem} {
		r := faultRun(t, d, 300, false)
		if r.Failed != 0 {
			t.Errorf("%s: clean run failed %d ops", d, r.Failed)
		}
		if r.OK+r.Misses != r.Ops {
			t.Errorf("%s: OK %d + Misses %d != Ops %d", d, r.OK, r.Misses, r.Ops)
		}
		for _, ctr := range []metrics.Counter{metrics.CRetries, metrics.CTimeouts, metrics.CFailovers, metrics.CCancels} {
			if n := r.Clients.Val(ctr); n != 0 {
				t.Errorf("%s: clean run has %s=%d", d, ctr, n)
			}
		}
		if r.Dropped != 0 {
			t.Errorf("%s: clean run dropped %d messages", d, r.Dropped)
		}
		if r.goodput() <= 0 {
			t.Errorf("%s: goodput %f", d, r.goodput())
		}
	}
}

// With an empty schedule the deadline/retry instrumentation must be
// invisible: the run takes exactly the same virtual time as the plain
// blocking driver on an identical cluster and workload.
func TestFaultedEmptyScheduleParity(t *testing.T) {
	const ops = 300
	c := faultTestCell(cluster.HRDMAOptBlock, ops, false)
	r := runCell(t, c)

	c.drive = c.spec.closed(zipf(0.5, 5), ops) // H-RDMA-Opt-Block: the blocking API
	b := runCell(t, c)

	if r.Elapsed != b.Elapsed {
		t.Errorf("empty-schedule elapsed %v != blocking driver elapsed %v", r.Elapsed, b.Elapsed)
	}
	if r.Misses != b.Misses {
		t.Errorf("empty-schedule misses %d != blocking driver misses %d", r.Misses, b.Misses)
	}
}

// Every design must survive the default fault schedule: all ops accounted
// for, recovery engaged on the lossy fabric, and the run fully deterministic.
func TestFaultedAllDesigns(t *testing.T) {
	for _, d := range cluster.Designs {
		r1 := faultRun(t, d, 300, true)
		if r1.OK+r1.Misses+r1.Failed != r1.Ops {
			t.Errorf("%s: OK %d + Misses %d + Failed %d != Ops %d",
				d, r1.OK, r1.Misses, r1.Failed, r1.Ops)
		}
		if r1.Dropped == 0 {
			t.Errorf("%s: fault schedule dropped nothing", d)
		}
		if d.Transport() != cluster.IPoIBMem.Transport() {
			if r1.Clients.Val(metrics.CRetries) == 0 && r1.Failed == 0 {
				t.Errorf("%s: drops injected but no retries and no failures", d)
			}
		}
		r2 := faultRun(t, d, 300, true)
		if r1.Elapsed != r2.Elapsed || r1.OK != r2.OK || r1.Failed != r2.Failed {
			t.Errorf("%s: faulted run not deterministic: (%v,%d,%d) vs (%v,%d,%d)",
				d, r1.Elapsed, r1.OK, r1.Failed, r2.Elapsed, r2.OK, r2.Failed)
		}
	}
}

// The registry experiment itself at smoke scale.
func TestFaultsExperimentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("faults experiment is slow")
	}
	r := runExp(t, "faults", quick())
	for _, d := range cluster.Designs {
		name := d.String()
		if r.Metrics[name+".clean_failed"] != 0 {
			t.Errorf("%s: clean phase failed %v ops", name, r.Metrics[name+".clean_failed"])
		}
		if r.Metrics[name+".clean_retries"] != 0 {
			t.Errorf("%s: clean phase retried %v times", name, r.Metrics[name+".clean_retries"])
		}
		if r.Metrics[name+".net_dropped"] == 0 {
			t.Errorf("%s: faulted phase dropped nothing", name)
		}
		if r.Metrics[name+".fault_goodput"] <= 0 {
			t.Errorf("%s: faulted goodput %v", name, r.Metrics[name+".fault_goodput"])
		}
	}
	if r.Output == "" {
		t.Error("no output table")
	}
}
