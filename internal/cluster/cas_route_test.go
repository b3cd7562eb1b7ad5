package cluster

import (
	"hybridkv/internal/metrics"
	"testing"

	"hybridkv/internal/core"
	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
)

// A CAS token is a per-store counter the chain does not replicate: the
// primary and a backup hold different tokens for the same key. Gets must
// therefore read from the server CompareAndSet writes to — primary first,
// over RPC — even for a key hot enough that plain GETs fan out round-robin
// across the replica set, or every other Gets→CompareAndSet pair answers
// Exists.
func TestGetsReadsTheTokenCompareAndSetChecks(t *testing.T) {
	cl := New(Config{
		Design:            HRDMAOptNonBI,
		Profile:           ClusterA(),
		Servers:           3,
		Clients:           1,
		ServerMem:         8 << 20,
		ReplicationFactor: 2,
		Bypass:            true,
		HotFanout:         true,
	})
	c := cl.Clients[0]
	const key = "cas:celebrity"
	const crawl = 100 * sim.Microsecond
	for _, s := range cl.Servers {
		if err := s.Store().StartCrawler(crawl, 4096); err != nil {
			t.Fatal(err)
		}
	}
	sim.Drive(t, cl.Env, "cas", func(p *sim.Proc) {
		defer func() {
			for _, s := range cl.Servers {
				s.Store().StopCrawler()
			}
		}()
		// Other keys, owned by different pairs of the three servers, move the
		// stores' token counters apart.
		for i := 0; i < 7; i++ {
			c.Set(p, memKey(i), 64, i, 0, 0)
		}
		if st := c.Set(p, key, 64, 0, 0, 0); st != protocol.StatusStored {
			t.Errorf("set: %v", st)
			return
		}
		// Heat the key in its primary's sketch (RPC reads; one-sided READs
		// are invisible to it), let a crawl publish the hot set, then read
		// on the default path until the client has learned it and fans out.
		for i := 0; i < 64; i++ {
			req, _ := c.Issue(p, core.Op{Code: protocol.OpGet, Key: key}, core.WithReadPath(core.ReadRPC))
			c.Wait(p, req)
		}
		p.Sleep(2 * crawl)
		for i := 0; i < 1024 && c.Counters.Val(metrics.CHotFanouts) < 4; i++ {
			c.Get(p, key)
		}
		if c.Counters.Val(metrics.CHotFanouts) < 4 {
			t.Errorf("the key never fanned out: %d hot fan-outs", c.Counters.Val(metrics.CHotFanouts))
			return
		}
		// The premise: two fanned-out reads land on the two replicas, and
		// their tokens differ.
		var tokens [2]uint64
		for i := range tokens {
			req, _ := c.Issue(p, core.Op{Code: protocol.OpGet, Key: key}, core.WithReadPath(core.ReadRPC))
			c.Wait(p, req)
			tokens[i] = req.CAS
		}
		if tokens[0] == tokens[1] {
			t.Errorf("both replicas hold token %d: the test cannot tell them apart", tokens[0])
			return
		}
		for i := 1; i <= 20; i++ {
			_, _, cas, st := c.Gets(p, key)
			if st != protocol.StatusOK {
				t.Errorf("pair %d: gets: %v", i, st)
				return
			}
			req, _ := c.Issue(p, core.Op{Code: protocol.OpCAS, Key: key, ValueSize: 64, Value: i, CAS: cas})
			if c.Wait(p, req); req.Status != protocol.StatusStored {
				t.Errorf("pair %d: compare-and-set with the token Gets returned: %v", i, req.Status)
			}
		}
	})
	if got := c.Counters.Val(metrics.CHotFanouts); got < 4 {
		t.Fatalf("hot-fanouts = %d", got)
	}
}
