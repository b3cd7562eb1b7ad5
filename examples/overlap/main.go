// Overlap: demonstrates the communication/computation overlap the
// non-blocking extensions unlock (paper Section VI-D). The application has
// a fixed batch of Sets to push to a busy hybrid server AND a fixed amount
// of computation to do. With blocking memcached_set the two serialize; with
// iset + test the computation hides inside the storage latency.
//
//	go run ./examples/overlap
package main

import (
	"fmt"

	"hybridkv/internal/cluster"
	"hybridkv/internal/core"
	"hybridkv/internal/sim"
)

const (
	nOps      = 400
	valueSize = 32 * 1024
	// computeNeed is the app's own work: 400 × 10 µs = 4 ms total.
	computeGrain = 10 * sim.Microsecond
)

func newCluster() *cluster.Cluster {
	cl := cluster.New(cluster.Config{
		Design:    cluster.HRDMAOptNonBI,
		Profile:   cluster.ClusterA(),
		ServerMem: 4 << 20, // tiny RAM: most sets spill to SSD
	})
	return cl
}

func main() {
	// Blocking: compute, then set, one by one.
	blocking := func() sim.Time {
		cl := newCluster()
		c := cl.Clients[0]
		var total sim.Time
		cl.Env.Spawn("app", func(p *sim.Proc) {
			t0 := p.Now()
			for i := 0; i < nOps; i++ {
				p.Sleep(computeGrain) // the app's own computation
				c.Set(p, fmt.Sprintf("result:%04d", i), valueSize, i, 0, 0)
			}
			total = p.Now() - t0
		})
		cl.Env.Run()
		return total
	}()

	// Non-blocking: issue the set, compute while it is in flight, check
	// completion with memcached_test, and wait only at the very end.
	nonblocking := func() sim.Time {
		cl := newCluster()
		c := cl.Clients[0]
		var total sim.Time
		cl.Env.Spawn("app", func(p *sim.Proc) {
			t0 := p.Now()
			reqs := make([]*core.Req, 0, nOps)
			for i := 0; i < nOps; i++ {
				req, err := c.ISet(p, fmt.Sprintf("result:%04d", i), valueSize, i, 0)
				if err != nil {
					panic(err)
				}
				reqs = append(reqs, req)
				p.Sleep(computeGrain) // overlapped with the set in flight
				_ = c.Test(req)       // poll without blocking (memcached_test)
			}
			c.WaitAll(p, reqs) // guarantee completion (memcached_wait)
			total = p.Now() - t0
			for _, req := range reqs {
				c.Release(req) // the handles go back to the client for reuse
			}
		})
		cl.Env.Run()
		return total
	}()

	compute := sim.Time(nOps) * computeGrain
	fmt.Printf("%d sets of 32 KB + %v of application compute, hybrid server with 4 MB RAM:\n\n", nOps, compute)
	fmt.Printf("  blocking set          : %v total\n", blocking)
	fmt.Printf("  iset + test + wait    : %v total  (%.1fx faster)\n",
		nonblocking, float64(blocking)/float64(nonblocking))
	fmt.Printf("\nthe non-blocking run hides the slab/SSD time behind the app's own compute\n")
}
