package main

import (
	"hybridkv/internal/cluster"
	"hybridkv/internal/sim"
	"hybridkv/internal/workload"
)

// loop is how a workload's simulated callers drive the client API.
type loop int

const (
	// loopWait is a closed loop of Issue followed by Wait, one op in flight
	// per worker.
	loopWait loop = iota
	// loopWindow is the paper's windowed non-blocking pattern: Issue
	// spec.window ops, then WaitAll.
	loopWindow
	// loopBlocking is a closed loop through the legacy blocking wrappers
	// Client.Get / Client.Set.
	loopBlocking
	// loopOpen is an open loop: seeded Poisson arrivals at spec.rateKops,
	// issued when due whether or not earlier ops have completed.
	loopOpen
)

// refSeconds is the -seconds value the op counts below were sized for: at
// that value the three measured passes of a workload take about refSeconds of
// host time together on the 2-core reference box (README, "Sizes").
const refSeconds = 15

// spec is one named workload: a deployment plus the traffic driven at it.
type spec struct {
	name string
	why  string

	cfg func() cluster.Config
	// crawler starts every server's LRU crawler for the measured phase.
	crawler bool

	keys      int
	valueSize int
	readFrac  float64
	pattern   workload.Pattern

	loop    loop
	workers int // simulated caller procs per client
	window  int // loopWindow only
	// rateKops is the open-loop arrival rate summed over all generators, in
	// thousand ops per virtual second.
	rateKops float64

	// ops is the op count of one pass at -seconds refSeconds.
	ops int
	// slice is the virtual-time step the measured phase is advanced by; sized
	// so a full-scale pass takes well over 30 steps.
	slice sim.Time
}

// spillConfig is the deployment write-spill and read-spill share: one server
// whose 128 MB of data is 4× its slab memory and 8× its page cache. The
// default 128 MB page cache would hold every flushed page and hide every SSD
// read at this data size, so it is shrunk to 16 MB with watermarks in the
// default proportions.
func spillConfig() cluster.Config {
	prof := cluster.ClusterA()
	prof.PageCache.MaxPages = 4096
	prof.PageCache.DirtyHighPages = 1024
	prof.PageCache.ThrottlePages = 2048
	return cluster.Config{
		Design:    cluster.HRDMAOptNonBI,
		Profile:   prof,
		Servers:   1,
		Clients:   2,
		ServerMem: 32 << 20,
	}
}

// specs lists the workloads in report order. Names are fixed: later issues
// cite them, and BENCHMARK.json declares them.
var specs = []*spec{
	{
		name: "read-hot",
		why:  "skewed 95% GET on data that fits RAM: the bypass engine, one-sided READs and the directory do the work; server CPU and storage do none",
		cfg: func() cluster.Config {
			return cluster.Config{
				Design:            cluster.HRDMAOptNonBI,
				Profile:           cluster.ClusterA(),
				Servers:           3,
				Clients:           2,
				ServerMem:         16 << 20,
				ReplicationFactor: 2,
				Bypass:            true,
				HotFanout:         true,
			}
		},
		crawler:   true,
		keys:      8192,
		valueSize: 512,
		readFrac:  0.95,
		pattern:   workload.Zipf,
		loop:      loopWait,
		workers:   8,
		ops:       120_000,
		slice:     500 * sim.Microsecond,
	},
	{
		name:      "write-spill",
		why:       "the paper's headline case: 50% SET in 32-op non-blocking windows on data 4x RAM, so slab eviction, page-cache writeback and SSD writes carry the cost",
		cfg:       spillConfig,
		keys:      4096,
		valueSize: 32 << 10,
		readFrac:  0.5,
		pattern:   workload.Zipf,
		loop:      loopWindow,
		workers:   1,
		window:    32,
		ops:       180_000,
		slice:     20 * sim.Millisecond,
	},
	{
		name:      "read-spill",
		why:       "uniform blocking reads of the same 4x-RAM data: most GETs load from SSD and miss the page cache, so the storage layers are used the other way",
		cfg:       spillConfig,
		keys:      4096,
		valueSize: 32 << 10,
		readFrac:  0.95,
		pattern:   workload.Uniform,
		loop:      loopBlocking,
		workers:   4,
		ops:       135_000,
		slice:     50 * sim.Millisecond,
	},
	{
		name: "repl-open",
		why:  "open-loop Poisson arrivals, 50% SET at R=3: replication forward/ack, server dispatch and the fabric carry the cost, and queueing tails show",
		cfg: func() cluster.Config {
			return cluster.Config{
				Design:            cluster.HRDMAOptNonBI,
				Profile:           cluster.ClusterB(),
				Servers:           3,
				Clients:           2,
				ServerMem:         32 << 20,
				ReplicationFactor: 3,
			}
		},
		keys:      4096,
		valueSize: 4 << 10,
		readFrac:  0.5,
		pattern:   workload.Uniform,
		loop:      loopOpen,
		workers:   1,
		rateKops:  1200,
		ops:       84_000,
		slice:     500 * sim.Microsecond,
	},
}

func specByName(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}
