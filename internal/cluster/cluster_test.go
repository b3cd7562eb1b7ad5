package cluster

import (
	"fmt"
	"strings"
	"testing"

	"hybridkv/internal/core"
	"hybridkv/internal/hybridslab"
	"hybridkv/internal/protocol"
	"hybridkv/internal/replication"
	"hybridkv/internal/server"
	"hybridkv/internal/sim"
)

func TestDesignMatrix(t *testing.T) {
	cases := []struct {
		d         Design
		transport core.Transport
		hybrid    bool
		policy    hybridslab.IOPolicy
		pipeline  server.Pipeline
		nonblock  bool
	}{
		{IPoIBMem, core.IPoIB, false, hybridslab.PolicyAdaptive, server.Sync, false},
		{RDMAMem, core.RDMA, false, hybridslab.PolicyAdaptive, server.Sync, false},
		{HRDMADef, core.RDMA, true, hybridslab.PolicyDirect, server.Sync, false},
		{HRDMAOptBlock, core.RDMA, true, hybridslab.PolicyAdaptive, server.Sync, false},
		{HRDMAOptNonBB, core.RDMA, true, hybridslab.PolicyAdaptive, server.Async, true},
		{HRDMAOptNonBI, core.RDMA, true, hybridslab.PolicyAdaptive, server.Async, true},
	}
	for _, c := range cases {
		if c.d.Transport() != c.transport || c.d.Hybrid() != c.hybrid ||
			c.d.Pipeline() != c.pipeline || c.d.NonBlocking() != c.nonblock {
			t.Errorf("%v: matrix mismatch", c.d)
		}
		if c.hybrid && c.d.Policy() != c.policy {
			t.Errorf("%v: policy %v, want %v", c.d, c.d.Policy(), c.policy)
		}
	}
	if !HRDMAOptNonBB.BufferGuarantee() || HRDMAOptNonBI.BufferGuarantee() {
		t.Errorf("buffer guarantee flags wrong")
	}
	if len(Designs) != 6 {
		t.Errorf("Designs has %d entries", len(Designs))
	}
}

func TestEachDesignServesTraffic(t *testing.T) {
	for _, d := range Designs {
		cl := New(Config{Design: d, Profile: ClusterA(), ServerMem: 64 << 20})
		var setSt, getSt protocol.Status
		var v any
		cl.Env.Spawn("smoke", func(p *sim.Proc) {
			setSt = cl.Clients[0].Set(p, "hello", 32*1024, "world", 0, 0)
			v, _, getSt = cl.Clients[0].Get(p, "hello")
		})
		cl.Env.Run()
		if setSt != protocol.StatusStored || getSt != protocol.StatusOK || v != "world" {
			t.Errorf("%v: set=%v get=%v v=%v", d, setSt, getSt, v)
		}
	}
}

// totalSetOps sums the Set operations the servers' stores counted.
func totalSetOps(cl *Cluster) int64 {
	var n int64
	for _, s := range cl.Servers {
		n += s.Store().SetOps
	}
	return n
}

func TestPreloadPlacesData(t *testing.T) {
	cl := New(Config{
		Design: HRDMADef, Profile: ClusterA(),
		ServerMem: 16 << 20, // 16 MB RAM
	})
	elapsed := cl.Preload(1500, 32*1024, func(i int) string { return fmt.Sprintf("obj:%010d", i) }) // ~47 MB
	if elapsed <= 0 {
		t.Errorf("preload consumed no time")
	}
	if got := totalSetOps(cl); got != 1500 {
		t.Errorf("server saw %d sets", got)
	}
	mgr := cl.Servers[0].Store().Manager()
	if mgr.SSDItems() == 0 {
		t.Errorf("no items overflowed to SSD after 3x overcommit")
	}
	if mgr.RAMItems()+mgr.SSDItems() != 1500 {
		t.Errorf("RAM %d + SSD %d != 1500", mgr.RAMItems(), mgr.SSDItems())
	}
}

func TestMultiNodeDeployment(t *testing.T) {
	cl := New(Config{
		Design: HRDMAOptNonBI, Profile: ClusterB(),
		Servers: 4, Clients: 8, ServerMem: 32 << 20,
	})
	if len(cl.Servers) != 4 || len(cl.Clients) != 8 {
		t.Fatalf("built %d servers / %d clients", len(cl.Servers), len(cl.Clients))
	}
	done := 0
	for i, c := range cl.Clients {
		cl.Env.Spawn(fmt.Sprintf("load%d", i), func(p *sim.Proc) {
			for j := 0; j < 50; j++ {
				key := fmt.Sprintf("c%d-k%d", i, j)
				c.Set(p, key, 8192, j, 0, 0)
				if v, _, st := c.Get(p, key); st == protocol.StatusOK && v == j {
					done++
				}
			}
		})
	}
	cl.Env.Run()
	if done != 8*50 {
		t.Errorf("%d of 400 round trips verified", done)
	}
	if totalSetOps(cl) != 400 {
		t.Errorf("servers saw %d sets", totalSetOps(cl))
	}
}

func TestProfilesDiffer(t *testing.T) {
	a, b := ClusterA(), ClusterB()
	if a.SSD.Name == b.SSD.Name {
		t.Errorf("profiles share SSD model")
	}
	if a.SSD.ReadBase <= b.SSD.ReadBase {
		t.Errorf("SATA read base not slower than NVMe")
	}
}

func TestBackendDefaultPenalty(t *testing.T) {
	cl := New(Config{Design: RDMAMem, Profile: ClusterA()})
	var d sim.Time
	cl.Env.Spawn("miss", func(p *sim.Proc) {
		t0 := p.Now()
		cl.Backend.Fetch(p, "missing")
		d = p.Now() - t0
	})
	cl.Env.Run()
	if d < 1500*sim.Microsecond || d > 2*sim.Millisecond {
		t.Errorf("backend penalty %v, want <2ms and ≈1.8ms", d)
	}
}

func TestDesignStrings(t *testing.T) {
	want := map[Design]string{
		IPoIBMem:      "IPoIB-Mem",
		RDMAMem:       "RDMA-Mem",
		HRDMADef:      "H-RDMA-Def",
		HRDMAOptBlock: "H-RDMA-Opt-Block",
		HRDMAOptNonBB: "H-RDMA-Opt-NonB-b",
		HRDMAOptNonBI: "H-RDMA-Opt-NonB-i",
	}
	for d, s := range want {
		if d.String() != s {
			t.Errorf("%d stringifies to %q, want %q", int(d), d.String(), s)
		}
	}
}

// New builds every client's Membership, Bypass and HotFanout from the
// deployment's own fields; a value set on Config.Client instead used to be
// overwritten without a word (a caller asking for Client.Bypass got an
// RPC-only fleet). It is refused, naming the field to set.
func TestNewRefusesClientFieldsTheDeploymentDecides(t *testing.T) {
	for _, tc := range []struct {
		name   string
		client core.Config
		want   string
	}{
		{"Membership", core.Config{Membership: replication.NewMembership(sim.NewEnv(), 2, []int{0, 1})}, "Config.ReplicationFactor"},
		{"Bypass", core.Config{Bypass: true}, "set Config.Bypass"},
		{"HotFanout", core.Config{HotFanout: true}, "set Config.HotFanout"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "Config.Client."+tc.name) || !strings.Contains(msg, tc.want) {
					t.Errorf("New panicked with %q, want Config.Client.%s refused in favour of %q", msg, tc.name, tc.want)
				}
			}()
			New(Config{Design: HRDMAOptNonBI, Profile: ClusterA(), Servers: 2, ReplicationFactor: 2, Bypass: true, Client: tc.client})
			t.Error("New accepted the field")
		})
	}
}
