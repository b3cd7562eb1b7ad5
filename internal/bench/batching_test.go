package bench

import (
	"testing"

	"hybridkv/internal/cluster"
	"hybridkv/internal/core"
	"hybridkv/internal/metrics"
	"hybridkv/internal/sim"
	"hybridkv/internal/workload"
)

// batchRun runs one sweep cell: design d, zipf at the given read fraction,
// window size b, on the registry's geometry.
func batchRun(t *testing.T, d cluster.Design, read float64, b, ops int) *run {
	t.Helper()
	return runCell(t, batchCell(d, 24<<20, 32*1024, ops, zipf(read, 7), b))
}

func opsPerS(r *run) float64 { return metrics.Throughput(r.Ops, r.Elapsed) }

// TestBatchingImprovesNonBDesigns locks the tentpole's headline claim: on
// the 50:50 workload, a 16-op coalescing window gives the non-blocking
// designs strictly higher throughput, strictly fewer SSD eviction writes,
// and strictly fewer wire sends (credits) than unbatched issue.
func TestBatchingImprovesNonBDesigns(t *testing.T) {
	for _, d := range []cluster.Design{cluster.HRDMAOptNonBB, cluster.HRDMAOptNonBI} {
		b1 := batchRun(t, d, 0.5, 1, 1200)
		b16 := batchRun(t, d, 0.5, 16, 1200)
		if opsPerS(b16) <= opsPerS(b1) {
			t.Errorf("%s: batch=16 ops/s %.0f not above batch=1 %.0f", d, opsPerS(b16), opsPerS(b1))
		}
		if b16.FlushWrites >= b1.FlushWrites {
			t.Errorf("%s: batch=16 SSD writes %d not below batch=1 %d", d, b16.FlushWrites, b1.FlushWrites)
		}
		if b16.Sends >= b1.Sends {
			t.Errorf("%s: batch=16 sends %d not below batch=1 %d", d, b16.Sends, b1.Sends)
		}
		if b16.Frames == 0 || b1.Frames != 0 {
			t.Errorf("%s: frames b16=%d b1=%d, want coalescing only at batch=16", d, b16.Frames, b1.Frames)
		}
	}
}

// TestBatchOneMatchesPlainDriver locks the no-regression criterion: batch=1
// never opens a window, so the batched driver must consume exactly the
// virtual time of a driver written against the pre-batching API (serial
// issue + wait).
func TestBatchOneMatchesPlainDriver(t *testing.T) {
	const ops = 400
	c := batchCell(cluster.HRDMAOptNonBI, 24<<20, 32*1024, ops, zipf(0.5, 7), 1)
	batched := runCell(t, c).Elapsed

	c.drive = func(cl *cluster.Cluster, r *run) {
		gen, client := c.spec.gen(zipf(0.5, 7)), cl.Clients[0]
		start := cl.Env.Now()
		cl.Env.Spawn("plain", func(p *sim.Proc) {
			vs := gen.ValueSize()
			for i := 0; i < ops; i++ {
				kind, key := gen.Next()
				var req *core.Req
				var err error
				if kind == workload.OpSet {
					req, err = client.ISet(p, key, vs, key, 0, 0)
				} else {
					req, err = client.IGet(p, key)
				}
				if err != nil {
					t.Fatalf("issue: %v", err)
				}
				client.Wait(p, req)
			}
		})
		cl.Env.Run()
		r.Elapsed, r.Ops = cl.Env.Now()-start, ops
	}
	if plain := runCell(t, c).Elapsed; batched != plain {
		t.Errorf("batch=1 elapsed %v differs from pre-batching driver %v", batched, plain)
	}
}

// TestBatchedIPoIBCoalesces checks the socket leg: buffered windows send
// vectored frames, cutting wire sends well below one per op.
func TestBatchedIPoIBCoalesces(t *testing.T) {
	b1 := batchRun(t, cluster.IPoIBMem, 0.0, 1, 600)
	b16 := batchRun(t, cluster.IPoIBMem, 0.0, 16, 600)
	if b16.Sends >= b1.Sends {
		t.Errorf("IPoIB: batch=16 sends %d not below batch=1 %d", b16.Sends, b1.Sends)
	}
	if b16.Frames == 0 {
		t.Errorf("IPoIB: no vectored frames sent at batch=16")
	}
	if opsPerS(b16) <= opsPerS(b1) {
		t.Errorf("IPoIB: batch=16 ops/s %.0f not above batch=1 %.0f", opsPerS(b16), opsPerS(b1))
	}
}
