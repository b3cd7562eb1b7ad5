package cluster_test

import (
	"fmt"

	"hybridkv/internal/cluster"
	"hybridkv/internal/core"
	"hybridkv/internal/sim"
)

// The smallest complete program: one hybrid server, one client, blocking
// API.
func Example() {
	cl := cluster.New(cluster.Config{
		Design:    cluster.HRDMAOptNonBI,
		Profile:   cluster.ClusterA(),
		ServerMem: 8 << 20,
	})
	c := cl.Clients[0]
	cl.Env.Spawn("app", func(p *sim.Proc) {
		st := c.Set(p, "answer", 2, "42", 0, 0)
		fmt.Println("set:", st)
		v, _, st := c.Get(p, "answer")
		fmt.Println("get:", v, st)
	})
	cl.Env.Run() // no driver: an Example has no test to fail; its driver's last line of Output is the check
	// Output:
	// set: STORED
	// get: 42 OK
}

// Non-blocking extensions: issue a batch of isets, test, then wait — the
// paper's Listing 2 pattern.
func Example_nonBlocking() {
	cl := cluster.New(cluster.Config{
		Design:    cluster.HRDMAOptNonBI,
		Profile:   cluster.ClusterA(),
		ServerMem: 8 << 20,
	})
	c := cl.Clients[0]
	cl.Env.Spawn("app", func(p *sim.Proc) {
		var reqs []*core.Req
		for i := 0; i < 4; i++ {
			req, err := c.ISet(p, fmt.Sprintf("chunk:%d", i), 4096, i, 0)
			if err != nil {
				panic(err)
			}
			reqs = append(reqs, req)
		}
		fmt.Println("first already done before waiting:", c.Test(reqs[0]))
		c.WaitAll(p, reqs) // block-by-block completion guarantee
		done := 0
		for _, r := range reqs {
			if c.Test(r) {
				done++
			}
		}
		fmt.Println("completed:", done)
	})
	cl.Env.Run() // no driver: an Example has no test to fail; its driver's last line of Output is the check
	// Output:
	// first already done before waiting: false
	// completed: 4
}

// The hybrid store retains more data than RAM holds: overflow goes to the
// simulated SSD and every key stays readable.
func Example_hybridRetention() {
	cl := cluster.New(cluster.Config{
		Design:    cluster.HRDMADef,
		Profile:   cluster.ClusterA(),
		ServerMem: 4 << 20, // 4 MB of slab RAM
	})
	c := cl.Clients[0]
	cl.Env.Spawn("app", func(p *sim.Proc) {
		for i := 0; i < 48; i++ { // 12 MB of values
			c.Set(p, fmt.Sprintf("blob:%02d", i), 256<<10, i, 0, 0)
		}
		misses := 0
		for i := 0; i < 48; i++ {
			if v, _, _ := c.Get(p, fmt.Sprintf("blob:%02d", i)); v != i {
				misses++
			}
		}
		fmt.Println("misses:", misses)
	})
	cl.Env.Run() // no driver: an Example has no test to fail; its driver's last line of Output is the check
	fmt.Println("ssd items > 0:", cl.Servers[0].Store().Manager().SSDItems() > 0)
	// Output:
	// misses: 0
	// ssd items > 0: true
}
