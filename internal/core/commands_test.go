package core

import (
	"fmt"
	"testing"

	"hybridkv/internal/protocol"
	"hybridkv/internal/server"
	"hybridkv/internal/sim"
)

// TestBlockingCommands runs every blocking command on both transports: they
// are all one roundTrip, so one script per command family serves RDMA and
// IPoIB alike.
func TestBlockingCommands(t *testing.T) {
	scripts := []struct {
		name    string
		servers int
		run     func(t *testing.T, p *sim.Proc, r *testRig)
	}{
		{"add-replace", 1, func(t *testing.T, p *sim.Proc, r *testRig) {
			if st := r.client.Add(p, "k", 10, "a", 0, 0); st != protocol.StatusStored {
				t.Errorf("add fresh: %v", st)
			}
			if st := r.client.Add(p, "k", 10, "b", 0, 0); st != protocol.StatusNotStored {
				t.Errorf("add dup: %v", st)
			}
			if st := r.client.Replace(p, "k", 10, "c", 0, 0); st != protocol.StatusStored {
				t.Errorf("replace: %v", st)
			}
			if st := r.client.Replace(p, "missing", 10, "d", 0, 0); st != protocol.StatusNotStored {
				t.Errorf("replace missing: %v", st)
			}
			v, _, _ := r.client.Get(p, "k")
			if v != "c" {
				t.Errorf("final value %v", v)
			}
		}},
		{"cas-cycle", 1, func(t *testing.T, p *sim.Proc, r *testRig) {
			r.client.Set(p, "k", 10, "v1", 0, 0)
			_, _, cas, st := r.client.Gets(p, "k")
			if st != protocol.StatusOK || cas == 0 {
				t.Fatalf("gets: (%d,%v)", cas, st)
			}
			if st := r.client.CompareAndSet(p, "k", 10, "v2", 0, 0, cas); st != protocol.StatusStored {
				t.Errorf("cas current: %v", st)
			}
			if st := r.client.CompareAndSet(p, "k", 10, "v3", 0, 0, cas); st != protocol.StatusExists {
				t.Errorf("cas stale: %v", st)
			}
		}},
		{"counters", 1, func(t *testing.T, p *sim.Proc, r *testRig) {
			if st := r.client.SetCounter(p, "hits", 100); st != protocol.StatusStored {
				t.Fatalf("set counter: %v", st)
			}
			if v, st := r.client.Incr(p, "hits", 11); st != protocol.StatusOK || v != 111 {
				t.Errorf("incr -> (%d,%v)", v, st)
			}
			if v, st := r.client.Decr(p, "hits", 11); st != protocol.StatusOK || v != 100 {
				t.Errorf("decr -> (%d,%v)", v, st)
			}
			if _, st := r.client.Incr(p, "nope", 1); st != protocol.StatusNotFound {
				t.Errorf("incr missing: %v", st)
			}
		}},
		{"append-prepend-touch", 1, func(t *testing.T, p *sim.Proc, r *testRig) {
			r.client.Set(p, "log", 100, "entry1", 0, 0)
			if st := r.client.Append(p, "log", 50, "entry2"); st != protocol.StatusStored {
				t.Errorf("append: %v", st)
			}
			if st := r.client.Prepend(p, "log", 25, "hdr"); st != protocol.StatusStored {
				t.Errorf("prepend: %v", st)
			}
			_, size, st := r.client.Get(p, "log")
			if st != protocol.StatusOK || size != 175 {
				t.Errorf("after concat: (%d,%v)", size, st)
			}
			if st := r.client.Touch(p, "log", 300); st != protocol.StatusOK {
				t.Errorf("touch: %v", st)
			}
			if st := r.client.Touch(p, "missing", 300); st != protocol.StatusNotFound {
				t.Errorf("touch missing: %v", st)
			}
		}},
		{"delete", 1, func(t *testing.T, p *sim.Proc, r *testRig) {
			r.client.Set(p, "k", 100, "v", 0, 0)
			if st := r.client.Delete(p, "k"); st != protocol.StatusDeleted {
				t.Errorf("delete: %v", st)
			}
			if st := r.client.Delete(p, "k"); st != protocol.StatusNotFound {
				t.Errorf("delete again: %v", st)
			}
		}},
		{"mget", 1, func(t *testing.T, p *sim.Proc, r *testRig) {
			r.client.Set(p, "a", 10, "va", 0, 0)
			reqs := r.client.MGet(p, []string{"a", "missing"})
			if reqs[0].Status != protocol.StatusOK || reqs[0].Value != "va" {
				t.Errorf("mget[0] %+v", reqs[0])
			}
			if reqs[1].Status != protocol.StatusNotFound {
				t.Errorf("mget[1] %v", reqs[1].Status)
			}
		}},
		{"flush-all", 3, func(t *testing.T, p *sim.Proc, r *testRig) {
			for i := 0; i < 30; i++ {
				r.client.Set(p, fmt.Sprintf("k%02d", i), 1024, i, 0, 0)
			}
			if st := r.client.FlushAll(p); st != protocol.StatusOK {
				t.Errorf("flush_all: %v", st)
			}
			for i := 0; i < 30; i++ {
				if _, _, st := r.client.Get(p, fmt.Sprintf("k%02d", i)); st != protocol.StatusNotFound {
					t.Errorf("key %d survived flush_all", i)
					break
				}
			}
			for i, srv := range r.servers {
				if srv.Store().Len() != 0 {
					t.Errorf("server %d still holds %d keys", i, srv.Store().Len())
				}
			}
		}},
	}
	names := map[Transport]string{RDMA: "rdma", IPoIB: "ipoib"}
	for _, tr := range []Transport{RDMA, IPoIB} {
		for _, sc := range scripts {
			t.Run(names[tr]+"/"+sc.name, func(t *testing.T) {
				r := newTestRig(rigOpts{transport: tr, pipeline: server.Async, servers: sc.servers})
				r.env.Spawn("app", func(p *sim.Proc) { sc.run(t, p, r) })
				r.env.Run()
				if st := r.client.Stats(); st.Issued != st.Completed {
					t.Errorf("issued %d, completed %d", st.Issued, st.Completed)
				}
			})
		}
	}
}

func TestMGetParallelism(t *testing.T) {
	r := newTestRig(rigOpts{transport: RDMA, pipeline: server.Async, servers: 4})
	const n = 64
	var keys []string
	var mgetTime, seqTime sim.Time
	r.env.Spawn("app", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("k%03d", i)
			keys = append(keys, k)
			r.client.Set(p, k, 8192, i, 0, 0)
		}
		t0 := p.Now()
		reqs := r.client.MGet(p, keys)
		mgetTime = p.Now() - t0
		for i, req := range reqs {
			if req.Status != protocol.StatusOK || req.Value != i {
				t.Errorf("mget[%d] = (%v,%v)", i, req.Value, req.Status)
			}
		}
		t0 = p.Now()
		for _, k := range keys {
			r.client.Get(p, k)
		}
		seqTime = p.Now() - t0
	})
	r.env.Run()
	if float64(seqTime)/float64(mgetTime) < 2 {
		t.Errorf("mget (%v) not ≥2x faster than %d sequential gets (%v)", mgetTime, n, seqTime)
	}
}

func TestBufferedModeDefersSets(t *testing.T) {
	r := newTestRig(rigOpts{transport: IPoIB})
	if err := r.client.SetBuffering(true); err != nil {
		t.Fatal(err)
	}
	var setLat, getLat, plainGet sim.Time
	r.env.Spawn("app", func(p *sim.Proc) {
		// Buffered sets return almost immediately.
		t0 := p.Now()
		for i := 0; i < 8; i++ {
			if st := r.client.Set(p, fmt.Sprintf("k%d", i), 32*1024, i, 0, 0); st != protocol.StatusStored {
				t.Errorf("buffered set: %v", st)
			}
		}
		setLat = (p.Now() - t0) / 8
		if got := bufferedSets(r.client); got != 8 {
			t.Errorf("queued %d sets, want 8", got)
		}
		// The first Get must flush the queue and absorb its cost.
		t0 = p.Now()
		v, _, st := r.client.Get(p, "k0")
		getLat = p.Now() - t0
		if st != protocol.StatusOK || v != 0 {
			t.Errorf("get after flush: (%v,%v)", v, st)
		}
		if bufferedSets(r.client) != 0 {
			t.Errorf("queue not drained by Get")
		}
		// A Get with an empty queue is normal-priced.
		t0 = p.Now()
		r.client.Get(p, "k1")
		plainGet = p.Now() - t0
	})
	r.env.Run()
	if setLat > 10*sim.Microsecond {
		t.Errorf("buffered set latency %v, want local-only (<10µs)", setLat)
	}
	if getLat < 3*plainGet {
		t.Errorf("flushing get (%v) not ≫ plain get (%v): queue cost not absorbed", getLat, plainGet)
	}
}

// bufferedSets is how many Sets the client holds queued, over all its
// connections.
func bufferedSets(c *Client) int {
	n := 0
	for _, cn := range c.conns {
		n += len(cn.buffered)
	}
	return n
}

func TestBufferedModeExplicitFlushAndThreshold(t *testing.T) {
	r := newTestRig(rigOpts{transport: IPoIB})
	r.client.SetBuffering(true)
	r.env.Spawn("app", func(p *sim.Proc) {
		for i := 0; i < 70; i++ { // beyond the 64-entry threshold
			r.client.Set(p, fmt.Sprintf("k%03d", i), 1024, i, 0, 0)
		}
		if got := bufferedSets(r.client); got >= 64 {
			t.Errorf("threshold flush did not trigger: %d queued", got)
		}
		r.client.FlushBuffers(p)
		if bufferedSets(r.client) != 0 {
			t.Errorf("explicit flush left %d queued", bufferedSets(r.client))
		}
		// Everything is durable server-side.
		for i := 0; i < 70; i += 13 {
			if v, _, st := r.client.Get(p, fmt.Sprintf("k%03d", i)); st != protocol.StatusOK || v != i {
				t.Errorf("k%03d after flush: (%v,%v)", i, v, st)
			}
		}
	})
	r.env.Run()
}

func TestBufferingRejectedOnRDMA(t *testing.T) {
	r := newTestRig(rigOpts{transport: RDMA})
	if err := r.client.SetBuffering(true); err != ErrTransport {
		t.Errorf("SetBuffering on RDMA err=%v, want ErrTransport", err)
	}
}
