// Package cluster assembles complete simulated deployments: a fabric, N
// Memcached servers, M clients, and a backend database, configured as one
// of the six designs the paper evaluates (Table I / Section VI-B) on one of
// the two testbeds (SDSC Comet with SATA SSDs, OSU NowLab with NVMe SSDs).
package cluster

import (
	"fmt"
	"strconv"

	"hybridkv/internal/backend"
	"hybridkv/internal/blockdev"
	"hybridkv/internal/core"
	"hybridkv/internal/hybridslab"
	"hybridkv/internal/metrics"
	"hybridkv/internal/pagecache"
	"hybridkv/internal/pool"
	"hybridkv/internal/replication"
	"hybridkv/internal/server"
	"hybridkv/internal/sim"
	"hybridkv/internal/simnet"
	"hybridkv/internal/slab"
	"hybridkv/internal/store"
)

// Design identifies one end-to-end configuration from the paper.
type Design int

const (
	// IPoIBMem is default Memcached + libmemcached over IP-over-IB.
	IPoIBMem Design = iota
	// RDMAMem is in-memory RDMA-based Memcached (Jose et al. [10]).
	RDMAMem
	// HRDMADef is the existing SSD-assisted hybrid design with direct I/O
	// and a synchronous server (Ouyang et al. [17]).
	HRDMADef
	// HRDMAOptBlock adds this paper's adaptive slab I/O, blocking APIs.
	HRDMAOptBlock
	// HRDMAOptNonBB adds the async server and bset/bget
	// (buffer-reuse-guaranteed non-blocking extensions).
	HRDMAOptNonBB
	// HRDMAOptNonBI uses iset/iget (purely non-blocking extensions).
	HRDMAOptNonBI
)

// Designs lists every design in presentation order.
var Designs = []Design{IPoIBMem, RDMAMem, HRDMADef, HRDMAOptBlock, HRDMAOptNonBB, HRDMAOptNonBI}

func (d Design) String() string {
	switch d {
	case IPoIBMem:
		return "IPoIB-Mem"
	case RDMAMem:
		return "RDMA-Mem"
	case HRDMADef:
		return "H-RDMA-Def"
	case HRDMAOptBlock:
		return "H-RDMA-Opt-Block"
	case HRDMAOptNonBB:
		return "H-RDMA-Opt-NonB-b"
	case HRDMAOptNonBI:
		return "H-RDMA-Opt-NonB-i"
	}
	return fmt.Sprintf("Design(%d)", int(d))
}

// Transport returns the design's network stack.
func (d Design) Transport() core.Transport {
	if d == IPoIBMem {
		return core.IPoIB
	}
	return core.RDMA
}

// Hybrid reports whether the design attaches SSDs.
func (d Design) Hybrid() bool {
	return d == HRDMADef || d == HRDMAOptBlock || d == HRDMAOptNonBB || d == HRDMAOptNonBI
}

// Policy returns the design's slab I/O policy.
func (d Design) Policy() hybridslab.IOPolicy {
	if d == HRDMADef {
		return hybridslab.PolicyDirect
	}
	return hybridslab.PolicyAdaptive
}

// Pipeline returns the design's server pipeline.
func (d Design) Pipeline() server.Pipeline {
	if d == HRDMAOptNonBB || d == HRDMAOptNonBI {
		return server.Async
	}
	return server.Sync
}

// NonBlocking reports whether the design's client uses the non-blocking
// API extensions.
func (d Design) NonBlocking() bool {
	return d == HRDMAOptNonBB || d == HRDMAOptNonBI
}

// BufferGuarantee reports whether the design's non-blocking variant
// guarantees buffer reuse on return (bset/bget vs iset/iget).
func (d Design) BufferGuarantee() bool { return d == HRDMAOptNonBB }

// Profile describes one testbed's hardware.
type Profile struct {
	SSD       blockdev.Profile
	PageCache pagecache.Params
}

// ClusterA models SDSC Comet: FDR InfiniBand + local SATA SSDs.
func ClusterA() Profile {
	return Profile{SSD: blockdev.SATA(), PageCache: pagecache.DefaultParams()}
}

// ClusterB models OSU NowLab: FDR InfiniBand + Intel P3700 NVMe SSDs.
func ClusterB() Profile {
	return Profile{SSD: blockdev.NVMe(), PageCache: pagecache.DefaultParams()}
}

// Config sizes one deployment.
type Config struct {
	Design  Design
	Profile Profile
	// Servers and Clients are node counts (default 1 and 1).
	Servers int
	Clients int
	// ServerMem is the slab memory budget per server (the -m flag).
	ServerMem int64
	// SSDCapacity bounds hybrid overflow per server (0 = 16 GB arena).
	SSDCapacity int64
	// StorageWorkers / BufferBytes tune the async server (0 = defaults).
	StorageWorkers int
	BufferBytes    int
	// AdaptiveCutoff overrides the mmap/cached class boundary.
	AdaptiveCutoff int
	// SlabPageSize overrides the slab page size (0 = 1 MB). Smaller pages
	// give finer eviction granularity — more, smaller SSD flushes.
	SlabPageSize int
	// AsyncFlush enables write-behind eviction (paper future work).
	AsyncFlush bool
	// Overload arms bounded admission with load shedding on async servers
	// (server.Config.Overload; false: blocking reservation).
	Overload bool
	// Breaker attaches a circuit breaker to every client connection that
	// opens after this many consecutive busy rejections or attempt timeouts
	// (core.Config.Breaker; 0: none).
	Breaker int
	// Health arms every client's latency-aware brown-out routing
	// (core.Config.Health).
	Health bool
	// ReplicationFactor R maps each key to a primary plus R-1 backups on
	// the shared ketama ring: servers forward admitted writes along the
	// chain before acking, clients route gets to any live replica, and a
	// background anti-entropy scrubber reconciles divergence. 0 or 1
	// leaves the deployment entirely unreplicated (no replicators are
	// even attached, so runs are virtual-time-identical to pre-replication
	// builds). Requires an RDMA design; clamped to the server count.
	ReplicationFactor int
	// Bypass attaches a published read directory to every server and
	// enables the clients' server-bypass GET path (one-sided RDMA READs;
	// see core.WithReadPath). Requires an RDMA design. False leaves every
	// deployment virtual-time-identical to pre-bypass builds.
	Bypass bool
	// HotFanout enables hot-key replicated-read fan-out on every client:
	// GETs for server-detected hot keys round-robin across the key's
	// replica set instead of pinning to the primary. Needs Bypass (the hot
	// set rides the directory bootstrap) and ReplicationFactor > 1 to have
	// any effect.
	HotFanout bool
	// Pacer throttles background replication traffic (anti-entropy scrub
	// and migration pulls) behind a token bucket that yields to each
	// server's foreground load (replication.Config.Pacer). Only meaningful
	// with ReplicationFactor > 1.
	Pacer bool
	// NoVerify disables on-SSD integrity verification on every server
	// (hybridslab.Config.NoVerify) — the "nodefense" baseline of the bitrot
	// experiment. Production configs leave it false: verification is on.
	NoVerify bool
	// NoScrub disables the replication scrubber entirely (the
	// "verify-only" bitrot cell).
	NoScrub bool
}

// Cluster is one assembled deployment.
type Cluster struct {
	Env     *sim.Env
	Fabric  *simnet.Fabric
	Servers []*server.Server
	Clients []*core.Client
	Backend *backend.DB
	Design  Design
	Profile Profile
	Devices []*blockdev.Device
	Caches  []*pagecache.Cache
	// Replicators holds one replication engine per server when
	// ReplicationFactor > 1 (nil otherwise).
	Replicators []*replication.Replicator
	// Directories holds one published read directory per server when
	// Config.Bypass is set (nil otherwise).
	Directories []*store.Directory
	// Membership is the shared epoch-versioned membership state machine
	// behind Join/Leave/Decommission (nil when ReplicationFactor <= 1: a
	// fleet that cannot re-replicate data has no safe way to reshard).
	Membership *replication.Membership

	// Construction parameters retained so Join can build late servers
	// identically to the originals.
	cfg   Config
	pcPar pagecache.Params
}

// New builds and starts a deployment.
func New(cfg Config) *Cluster {
	if cfg.Servers <= 0 {
		cfg.Servers = 1
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	if cfg.ServerMem <= 0 {
		cfg.ServerMem = 1 << 30
	}
	env := sim.NewEnv()
	spec := simnet.FDRInfiniBand()
	if cfg.Design.Transport() == core.IPoIB {
		spec = simnet.IPoIB()
	}
	fab := simnet.New(env, spec)
	cl := &Cluster{
		Env:     env,
		Fabric:  fab,
		Design:  cfg.Design,
		Profile: cfg.Profile,
		Backend: backend.New(env),
	}
	// The page-cache budget scales with the server's slab memory (the
	// testbed nodes had 64-128 GB of RAM, so the cache was never the
	// scarce resource): half the slab budget, watermarks proportional.
	// At the default scaled geometry this equals DefaultParams exactly.
	pcPar := cfg.Profile.PageCache
	if pages := int(cfg.ServerMem / 2 / int64(pcPar.PageSize)); pages > pcPar.MaxPages {
		pcPar.MaxPages = pages
		pcPar.DirtyHighPages = pages / 4
		pcPar.ThrottlePages = pages / 2
	}
	cl.cfg = cfg
	cl.pcPar = pcPar
	for i := 0; i < cfg.Servers; i++ {
		srv := cl.buildServer(i)
		srv.Start()
		cl.Servers = append(cl.Servers, srv)
	}
	repFactor := cfg.ReplicationFactor
	if repFactor > cfg.Servers {
		repFactor = cfg.Servers
	}
	if repFactor > 1 {
		if cfg.Design.Transport() != core.RDMA {
			panic("cluster: ReplicationFactor > 1 requires an RDMA design")
		}
		ids := make([]int, len(cl.Servers))
		for i := range ids {
			ids[i] = i
		}
		cl.Membership = replication.NewMembership(env, repFactor, ids)
		for i, srv := range cl.Servers {
			cl.Replicators = append(cl.Replicators, cl.attachReplicator(i, srv))
		}
		replication.Interconnect(cl.Replicators)
	}
	if cfg.Bypass {
		if cfg.Design.Transport() != core.RDMA {
			panic("cluster: Bypass requires an RDMA design")
		}
		for _, srv := range cl.Servers {
			cl.attachDirectory(srv)
		}
	}
	for i := 0; i < cfg.Clients; i++ {
		node := fab.AddNode(fmt.Sprintf("client%d", i))
		c := core.New(env, node, core.Config{
			Transport:  cfg.Design.Transport(),
			Breaker:    cfg.Breaker,
			Bypass:     cfg.Bypass,
			HotFanout:  cfg.HotFanout,
			Health:     cfg.Health,
			Membership: cl.Membership, // nil when unreplicated
		})
		for _, srv := range cl.Servers {
			if cfg.Design.Transport() == core.RDMA {
				c.ConnectRDMA(srv)
			} else {
				c.ConnectIPoIB(srv)
			}
		}
		cl.Clients = append(cl.Clients, c)
	}
	return cl
}

// buildServer assembles one server node (SSD, page cache, hybrid slab,
// store, server) exactly as New does for the initial fleet; Join reuses it
// for late arrivals. The caller starts the server and appends it to
// cl.Servers.
func (cl *Cluster) buildServer(i int) *server.Server {
	cfg, env := cl.cfg, cl.Env
	node := cl.Fabric.AddNode(fmt.Sprintf("server%d", i))
	var file *pagecache.File
	if cfg.Design.Hybrid() {
		arena := cfg.SSDCapacity
		if arena <= 0 {
			arena = 16 << 30
		}
		dev := blockdev.New(env, cfg.Profile.SSD, 2*arena)
		cache := pagecache.New(env, dev, cl.pcPar)
		file = cache.OpenFile(0, 2*arena)
		cl.Devices = append(cl.Devices, dev)
		cl.Caches = append(cl.Caches, cache)
	}
	mgr := hybridslab.New(env, hybridslab.Config{
		Slab:           slab.Config{MemLimit: cfg.ServerMem, PageSize: cfg.SlabPageSize},
		Policy:         cfg.Design.Policy(),
		AdaptiveCutoff: cfg.AdaptiveCutoff,
		SSDCapacity:    cfg.SSDCapacity,
		AsyncFlush:     cfg.AsyncFlush,
		NoVerify:       cfg.NoVerify,
	}, file)
	st := store.New(env, mgr)
	scfg := server.Config{
		Pipeline:       cfg.Design.Pipeline(),
		StorageWorkers: cfg.StorageWorkers,
		BufferBytes:    cfg.BufferBytes,
		Overload:       cfg.Overload,
	}
	if cfg.Design.Transport() == core.RDMA {
		return server.NewRDMA(env, node, st, scfg)
	}
	return server.NewIPoIB(env, node, st, scfg)
}

// attachReplicator builds server id's replicator and attaches it to srv.
// New and Join both build theirs here, so a joined server scrubs and paces
// exactly as the original fleet does. The caller wires it into the QP mesh
// and appends it to cl.Replicators.
func (cl *Cluster) attachReplicator(id int, srv *server.Server) *replication.Replicator {
	repl := replication.New(cl.Env, replication.Config{
		ID: id, Pacer: cl.cfg.Pacer, NoScrub: cl.cfg.NoScrub,
	}, cl.Membership, srv.Store(), srv.Device())
	srv.AttachReplicator(repl)
	return repl
}

// attachDirectory publishes a bypass read directory of the default geometry
// on srv.
func (cl *Cluster) attachDirectory(srv *server.Server) {
	d := store.NewDirectory(srv.Device().AllocPD(), 0)
	srv.AttachBypassDirectory(d)
	cl.Directories = append(cl.Directories, d)
}

// Preload stores n keys of valueSize bytes through client 0 using blocking
// sets in index order, lets background writeback settle, and returns
// the virtual time consumed. The caller's measurement starts after this.
// Key i holds the value "v<i>" (the string "v" then i in decimal): the
// benchmark's reply check accepts exactly that for a preloaded key. Each
// server's key table is sized first for 9/8 of its share of the copies, so
// the preload does not grow it step by step.
func (cl *Cluster) Preload(n, valueSize int, keyOf func(int) string) sim.Time {
	copies := n * min(max(cl.cfg.ReplicationFactor, 1), len(cl.Servers))
	for _, srv := range cl.Servers {
		srv.Store().Reserve(copies / len(cl.Servers) * 9 / 8)
	}
	start := cl.Env.Now()
	cl.Env.Spawn("preload", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			cl.Clients[0].Set(p, keyOf(i), valueSize, "v"+strconv.Itoa(i), 0, 0)
		}
	})
	cl.Env.Run()
	cl.SettleIO()
	return cl.Env.Now() - start
}

// SettleIO runs the simulation until the page caches have written back the
// bulk of their dirty pages, so measurements start from a steady state
// rather than competing with the preload's writeback backlog.
func (cl *Cluster) SettleIO() {
	if len(cl.Caches) == 0 {
		return
	}
	cl.Env.Spawn("settle", func(p *sim.Proc) {
		for {
			settled := true
			for _, c := range cl.Caches {
				// The flusher daemon drains to half the high watermark
				// and then idles; that is the steady state. Kick it in
				// case dirty sits below the kick watermark but above it.
				if c.Dirty() > c.Params().DirtyHighPages/2 {
					c.Kick()
					settled = false
				}
			}
			if settled {
				return
			}
			p.Sleep(5 * sim.Millisecond)
		}
	})
	cl.Env.Run()
}

// Census tallies every pooled record of the deployment (DESIGN §16): each
// client's requests and bypass resolutions; each server's replies, items and, with a directory, its
// published buckets and segments; each replicator's frames and rounds. Taken
// at a drained quiesce — Env.Run has returned and every caller has released
// what it issued — its Err names any record unaccounted for and any whose
// holds differ from the holders the walks found.
func (cl *Cluster) Census() pool.Census {
	var c pool.Census
	add := func(owner string, ts ...pool.Tally) {
		for _, t := range ts {
			t.List = owner + " " + t.List
			c = append(c, t)
		}
	}
	for i, cli := range cl.Clients {
		add(fmt.Sprintf("client%d", i), cli.Census()...)
	}
	for i, srv := range cl.Servers {
		add(fmt.Sprintf("server%d", i), srv.Store().Census()...)
	}
	for i, r := range cl.Replicators {
		add(fmt.Sprintf("server%d", i), r.Census()...)
	}
	return c
}

// ClientCounters sums every client's counters.
func (cl *Cluster) ClientCounters() metrics.Counters {
	var sum metrics.Counters
	for _, c := range cl.Clients {
		sum.Merge(&c.Counters)
	}
	return sum
}

// ReplicationCounters sums every replicator's counters: all zero when the
// deployment is unreplicated.
func (cl *Cluster) ReplicationCounters() metrics.Counters {
	var sum metrics.Counters
	for _, r := range cl.Replicators {
		sum.Merge(&r.Counters)
	}
	return sum
}
