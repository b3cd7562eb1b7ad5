package cluster

import (
	"fmt"
	"strings"
	"testing"

	"hybridkv/internal/core"
	"hybridkv/internal/hybridslab"
	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
	"hybridkv/internal/simnet"
)

// TestCensusNamesWhatLeaks runs a small replicated cluster with a published
// directory to a quiesce, where the census must find every pooled record
// accounted for. Then it plants the two faults the census exists to catch: a
// stray hold on a published item, and a server reply taken off the store's
// list that its taker lets go of without giving back. The census must name
// both: the replies list with its one record unaccounted for, and the item,
// whose holds exceed the holders the walk found by one.
func TestCensusNamesWhatLeaks(t *testing.T) {
	cl := New(Config{Design: HRDMAOptNonBI, Profile: ClusterA(), Servers: 2, ServerMem: 16 << 20,
		ReplicationFactor: 2, Bypass: true})
	defer cl.Env.Close()
	key := func(i int) string { return fmt.Sprintf("k%02d", i) }
	cl.Preload(64, 256, key)
	sim.Drive(t, cl.Env, "reads", func(p *sim.Proc) {
		for i := range 64 {
			cl.Clients[0].Get(p, key(i))
		}
	})
	if err := cl.Census().Err(); err != nil {
		t.Fatalf("a clean run: %v", err)
	}

	st := cl.Servers[0].Store()
	var planted *hybridslab.Item
	st.Manager().VisitLRU(1, func(it *hybridslab.Item) bool {
		planted = it
		return false
	})
	if planted == nil {
		t.Fatal("server0 has no resident item")
	}
	planted.Hold()
	st.Reply(1) // taken off the list and never released

	err := cl.Census().Err()
	if err == nil {
		t.Fatal("the census found nothing wrong with a stray hold and a lost reply")
	}
	for _, want := range []string{
		"server0 replies: 1 unaccounted",
		`server0 items: item "` + planted.Key + `": 4 holds, 3 holders walked`,
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("census: %v\nnames nothing like %q", err, want)
		}
	}
	if strings.Contains(err.Error(), "server1") || strings.Contains(err.Error(), "client0") {
		t.Errorf("census: %v\nblames a list nothing was planted in", err)
	}
}

// loseBuckets drops every bucket READ response a server sends.
type loseBuckets struct{ lost int }

func (l *loseBuckets) Transmit(src, dst string, size int, now sim.Time) simnet.Verdict {
	if strings.HasPrefix(src, "server") && size == protocol.DirBucketBytes {
		l.lost++
		return simnet.Verdict{Drop: true}
	}
	return simnet.Verdict{}
}

// TestCensusNamesAParkedResolver takes the census while a bypass GET's
// resolver has not returned its resolution record: its bucket READ was lost,
// and the run is cut before the resolver gives up on it. The census must name
// the client's resolutions list with that one record unaccounted for — and
// the GET's request, which its caller holds, and its attempt, which the
// request and the resolution hold — and blame no server. Run on to a quiesce, the resolver falls back to RPC and
// returns the record, and once the caller releases the GET the census is
// clean again.
func TestCensusNamesAParkedResolver(t *testing.T) {
	cl := New(Config{Design: HRDMAOptNonBI, Profile: ClusterA(), Servers: 2, ServerMem: 16 << 20,
		ReplicationFactor: 2, Bypass: true})
	defer cl.Env.Close()
	key := func(i int) string { return fmt.Sprintf("k%02d", i) }
	cl.Preload(8, 256, key)
	c := cl.Clients[0]
	sim.Drive(t, cl.Env, "reads", func(p *sim.Proc) {
		for i := range 8 {
			c.Get(p, key(i))
		}
	})
	if err := cl.Census().Err(); err != nil {
		t.Fatalf("a clean run: %v", err)
	}

	lose := &loseBuckets{}
	cl.Fabric.SetFaults(lose)
	var req *core.Req
	sim.DriveUntil(t, cl.Env, cl.Env.Now()+50*sim.Microsecond, sim.Driver{Name: "get", Fn: func(p *sim.Proc) {
		req, _ = c.IGet(p, key(0))
	}})
	if lose.lost != 1 || req.Done() {
		t.Fatalf("%d bucket READ responses lost, GET done %v; want the GET's one lost and the GET in flight", lose.lost, req.Done())
	}
	err := cl.Census().Err()
	if err == nil {
		t.Fatal("the census found nothing wrong with a resolver that has not returned its record")
	}
	for _, want := range []string{"client0 resolutions: 1 unaccounted", "client0 requests: 1 unaccounted", "client0 attempts: 1 unaccounted"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("census: %v\nnames nothing like %q", err, want)
		}
	}
	if strings.Contains(err.Error(), "server") {
		t.Errorf("census: %v\nblames a list nothing was planted in", err)
	}

	cl.Env.Run() // no driver: the cut run drains; the resolver is what is left to finish
	if req.Status != protocol.StatusOK || req.Bypassed() {
		t.Fatalf("GET after the lost READ: %v, bypassed %v; want an RPC answer", req.Status, req.Bypassed())
	}
	c.Release(req)
	if err := cl.Census().Err(); err != nil {
		t.Errorf("at the quiesce after: %v", err)
	}
}

// TestCloseUnwindsAParkedResolver closes a cluster's Env while a bypass GET's
// resolver is parked on a bucket READ whose response was lost: Close unwinds
// the resolver, whose deferred panic tag must pass the unwinding through as
// it is, so that Close records no fault and returns.
func TestCloseUnwindsAParkedResolver(t *testing.T) {
	cl := New(Config{Design: HRDMAOptNonBI, Profile: ClusterA(), Servers: 2, ServerMem: 16 << 20,
		ReplicationFactor: 2, Bypass: true})
	defer cl.Env.Close()
	key := func(i int) string { return fmt.Sprintf("k%02d", i) }
	cl.Preload(8, 256, key)
	c := cl.Clients[0]
	sim.Drive(t, cl.Env, "warm-up", func(p *sim.Proc) {
		for i := range 8 {
			c.Get(p, key(i))
		}
	})

	lose := &loseBuckets{}
	cl.Fabric.SetFaults(lose)
	var req *core.Req
	sim.DriveUntil(t, cl.Env, cl.Env.Now()+50*sim.Microsecond, sim.Driver{Name: "get", Fn: func(p *sim.Proc) {
		req, _ = c.IGet(p, key(0))
	}})
	if lose.lost != 1 || req.Done() {
		t.Fatalf("%d bucket READ responses lost, GET done %v; want the GET's one lost and the GET in flight", lose.lost, req.Done())
	}
	defer func() {
		if v := recover(); v != nil {
			t.Errorf("Close with a parked resolver panicked: %v", v)
		}
	}()
	cl.Env.Close()
}
