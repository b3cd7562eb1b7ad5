// Package hybridkv is a from-scratch Go reproduction of "High-Performance
// Hybrid Key-Value Store on Modern Clusters with RDMA Interconnects and
// SSDs: Non-blocking Extensions, Designs, and Benefits" (Shankar et al.,
// IPDPS 2016).
//
// The system lives under internal/: a deterministic discrete-event kernel
// (internal/sim), an RDMA-verbs + IPoIB fabric (internal/simnet,
// internal/verbs), SSD and page-cache substrates (internal/blockdev,
// internal/pagecache), the hybrid 'RAM+SSD' slab manager and item store
// (internal/slab, internal/hybridslab, internal/store), the server engine
// (internal/server), and — the paper's primary contribution — the
// libmemcached-style client with non-blocking ISet/IGet/BSet/BGet/Wait/Test
// extensions (internal/core). internal/cluster assembles deployments,
// internal/workload generates the OHB-style workloads, and internal/bench
// reproduces every table and figure of the evaluation.
//
// cmd/mc-bench is the one command; examples/ holds the paper's Listings 1
// and 2 against the client API. internal/reach.keep lists the functions no
// run of either enters yet, and who is to drive each (make reach checks it).
//
// See README.md for a tour, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for paper-vs-measured results.
package hybridkv
