package core

import (
	"testing"

	"hybridkv/internal/protocol"
	"hybridkv/internal/server"
	"hybridkv/internal/sim"
	"hybridkv/internal/store"
)

// A hedge that fires while the bypass resolver is still bootstrapping gives
// the request a second attempt on another connection. The resolver used to
// ask the request which connection it was on at every step, and went on to
// probe the hedge target's directory — never bootstrapped, nil — out of
// Env.Run. It resolves on the connection it started on.
func TestHedgeMidBootstrapLeavesTheResolverItsConnection(t *testing.T) {
	r := newTestRig(rigOpts{
		transport: RDMA, pipeline: server.Async, servers: 2,
		clientCfg: func(c *Config) { c.Bypass = true },
	})
	for _, srv := range r.servers {
		srv.AttachBypassDirectory(store.NewDirectory(srv.Device().AllocPD(), 0))
	}
	c := r.client
	var req *Req
	r.env.Spawn("bench", func(p *sim.Proc) {
		c.Set(p, "h", 512, "v", 0, 0)
		var err error
		req, err = c.Issue(p, Op{Code: protocol.OpGet, Key: "h"}, WithHedge(sim.Microsecond), WithReadPath(ReadBypass))
		if err != nil {
			t.Errorf("issue: %v", err)
			return
		}
		c.Wait(p, req)
	})
	r.env.Run()
	if req == nil || !req.Done() {
		t.Fatal("the GET never completed")
	}
	if n := c.Faults.Get("hedges"); n != 1 {
		t.Errorf("hedges = %d: the hedge never fired mid-bootstrap, the test proves nothing", n)
	}
	if n := c.Faults.Get("bypass-bootstraps"); n != 1 {
		t.Errorf("bypass-bootstraps = %d, want the resolver's one", n)
	}
}
