package core

import (
	"errors"
	"fmt"
	"hybridkv/internal/metrics"
	"testing"

	"hybridkv/internal/protocol"
	"hybridkv/internal/server"
	"hybridkv/internal/sim"
)

// cmdStep is one operation of a TestBlockingCommands script and what its
// request must hold once waited for: the status, and — when set — the value
// and the size. token +1 makes the step a gets (the GET carries casRead, its
// CAS token must be non-zero and is remembered), -1 sends the remembered one.
type cmdStep struct {
	op    Op
	want  protocol.Status
	value any
	size  int
	token int
}

// TestBlockingCommands runs the memcached command alphabet — every opcode,
// through Issue and Wait — on both transports: one table serves RDMA and
// IPoIB alike, because Issue is the front door of both.
func TestBlockingCommands(t *testing.T) {
	const ok, stored, notFound = protocol.StatusOK, protocol.StatusStored, protocol.StatusNotFound
	store := func(code protocol.Opcode, key string, size int, v any, want protocol.Status) cmdStep {
		return cmdStep{op: Op{Code: code, Key: key, ValueSize: size, Value: v}, want: want}
	}
	set := func(key string, size int, v any) cmdStep { return store(protocol.OpSet, key, size, v, stored) }
	on := func(code protocol.Opcode, key string, want protocol.Status) cmdStep {
		return cmdStep{op: Op{Code: code, Key: key}, want: want}
	}
	scripts := []struct {
		name  string
		steps []cmdStep
	}{
		{"add", []cmdStep{
			store(protocol.OpAdd, "k", 10, "a", stored),
			store(protocol.OpAdd, "k", 10, "b", protocol.StatusNotStored),
			{op: Op{Code: protocol.OpGet, Key: "k"}, want: ok, value: "a"},
		}},
		{"cas-cycle", []cmdStep{
			set("k", 10, "v1"),
			{op: Op{Code: protocol.OpGet, Key: "k"}, want: ok, token: +1},
			{op: Op{Code: protocol.OpCAS, Key: "k", ValueSize: 10, Value: "v2"}, want: stored, token: -1},
			{op: Op{Code: protocol.OpCAS, Key: "k", ValueSize: 10, Value: "v3"}, want: protocol.StatusExists, token: -1},
		}},
		{"counters", []cmdStep{
			set("hits", CounterSize, uint64(100)),
			{op: Op{Code: protocol.OpIncr, Key: "hits", Delta: 11}, want: ok, value: uint64(111)},
			{op: Op{Code: protocol.OpGet, Key: "hits"}, want: ok, value: uint64(111), size: CounterSize},
			{op: Op{Code: protocol.OpIncr, Key: "nope", Delta: 1}, want: notFound},
		}},
		{"mget", []cmdStep{
			set("a", 10, "va"),
			{op: Op{Code: protocol.OpGet, Key: "a"}, want: ok, value: "va"},
			on(protocol.OpGet, "missing", notFound),
		}},
	}
	names := map[Transport]string{RDMA: "rdma", IPoIB: "ipoib"}
	for _, tr := range []Transport{RDMA, IPoIB} {
		for _, sc := range scripts {
			t.Run(names[tr]+"/"+sc.name, func(t *testing.T) {
				r := newTestRig(rigOpts{transport: tr, pipeline: server.Async})
				r.env.Spawn("app", func(p *sim.Proc) {
					var token uint64
					for _, st := range sc.steps {
						var opts []IssueOption
						if st.token > 0 {
							opts = []IssueOption{casRead}
						} else if st.token < 0 {
							st.op.CAS = token
						}
						req, _ := r.client.Issue(p, st.op, opts...)
						r.client.Wait(p, req)
						if st.token > 0 {
							token = req.CAS
						}
						if req.Status != st.want || !errors.Is(req.Err(), statusErr(st.want)) ||
							st.value != nil && req.Value != st.value || st.size != 0 && req.ValueSize != st.size ||
							st.token > 0 && req.CAS == 0 {
							t.Errorf("%v %q: (%v, %v, %d bytes, cas %d), err %v; want %+v",
								st.op.Code, st.op.Key, req.Status, req.Value, req.ValueSize, req.CAS, req.Err(), st)
						}
					}
				})
				r.env.Run()
				if st := r.client.Counters; st.Val(metrics.CIssued) != st.Val(metrics.CCompleted) {
					t.Errorf("issued %d, completed %d", st.Val(metrics.CIssued), st.Val(metrics.CCompleted))
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
		reqs := make([]*Req, n)
		for i, k := range keys {
			reqs[i], _ = r.client.IGet(p, k)
		}
		r.client.WaitAll(p, reqs)
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
