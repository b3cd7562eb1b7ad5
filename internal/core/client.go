// Package core implements the paper's primary contribution: a
// libmemcached-style client with the proposed non-blocking API extensions
// (Section IV, Listing 1) and the enhanced runtime that supports them
// (Section V-A, Figure 3).
//
// The non-blocking surface is one descriptor API:
//
//	req, err := c.Issue(p, Op{Code: protocol.OpSet, Key: k, ...},
//	        WithBufferAck(),                  // bset/bget buffer semantics
//	        WithDeadline(5*sim.Millisecond),  // bound completion
//	        WithRetry(RetryPolicy{Failover: true}))
//
// Issue is the one way an operation starts, on either transport, and the
// memcached command alphabet is protocol.Opcode through it. On RDMA it returns
// once the request is handed to the communication engine (iset/iget
// semantics); WithBufferAck additionally blocks until the key/value buffers
// are reusable (bset/bget). A socket has no non-blocking send: on IPoIB the
// request Issue returns is already complete, its receive timeout and resend
// budget read off the same WithRetry / WithDeadline options (ipoibExchange).
// Completion is observed with Test / Wait / WaitTimeout / WaitAny / WaitAll,
// or abandoned with Cancel. Outcomes are read as errors: Req.Err() maps the
// protocol status plus local timeout/cancel outcomes onto sentinel errors
// (ErrNotFound, ErrDeadlineExceeded, ErrCanceled, …).
//
// API mapping from the paper's C extensions to Go:
//
//	memcached_set/get        → Client.Set / Client.Get (Issue + Wait)
//	memcached_iset/iget      → Issue(p, Op{...})            (wrappers:
//	    Client.ISet / Client.IGet; key/value buffers NOT yet reusable)
//	memcached_bset/bget      → Issue(p, Op{...}, WithBufferAck())
//	    (wrappers: Client.BSet / Client.BGet)
//	memcached_test/wait      → Client.Test / Client.Wait (+ WaitAny/WaitAll)
//	memcached_req            → Req (completion flag, response buffer,
//	    status, Err, timing)
//	memcached_add/cas/incr/… → Issue(p, Op{Code: protocol.OpAdd, ...})
//	    (commands.go keeps Gets and FlushAll, which an Op cannot spell)
//
// Runtime structure per connection (violet/red/green paths of Figure 3):
// a TX engine process drains an issue queue, respecting per-connection
// flow-control credits (the server's pre-posted receive depth), posts the
// work request, and fires the request's buffer-reusable event at DMA-sent
// time; a progress engine process polls the receive CQ and hands each
// BufferAck and Response to the attempt it is for. Recovery runs beside them:
// requests issued with a deadline or retry policy get a guard process that
// times out, retransmits (idempotency-aware, with exponential backoff +
// jitter), or fails the operation over to another connection; every
// retransmission is a fresh attempt with a fresh wire id. A request owns all
// of its attempts; each ends in attempt.settle, which gives back whatever it
// held, and the request in Req.finish, the one place its completion flag
// fires (issue.go) — so late or duplicate responses find nothing and are
// absorbed as stale.
package core

import (
	"errors"
	"fmt"

	"hybridkv/internal/metrics"
	"hybridkv/internal/protocol"
	"hybridkv/internal/replication"
	"hybridkv/internal/sim"
	"hybridkv/internal/simnet"
	"hybridkv/internal/verbs"
)

// Transport selects the wire protocol stack.
type Transport int

const (
	RDMA Transport = iota
	IPoIB
)

// Config tunes a client.
type Config struct {
	// Transport selects RDMA verbs or IPoIB sockets.
	Transport Transport
	// Breaker attaches a per-server circuit breaker to every connection
	// (see BreakerConfig). Zero value = no breakers, routing unchanged.
	Breaker BreakerConfig
	// Bypass enables the server-bypass read path: GETs resolve via
	// one-sided RDMA READs against the server's published directory (see
	// WithReadPath and internal/core/bypass.go), falling back to RPC on any
	// validation failure. RDMA transport only; requires the servers to have
	// a directory attached (server.AttachBypassDirectory). Zero value
	// = every GET takes the request/response path, exactly as before.
	Bypass bool
	// HotFanout routes GETs for server-detected hot keys across the key's
	// full replica set (round-robin, breaker-aware) instead of pinning them
	// to the primary, spreading a celebrity key over R servers. The hot-key
	// set piggybacks on the OpDirQuery bootstrap and is refreshed
	// periodically from issue activity; requires Bypass (the transport for
	// the hot set) and Membership to have any effect. Safe with
	// replication: writes ack only after every replica applied, and
	// cold-recovered replicas withhold unconfirmed keys.
	HotFanout bool
	// Health attaches latency-aware health scoring to every connection
	// (see HealthConfig and health.go): per-op-class service-time tracking
	// that puts persistently slow servers in a brown-out — deprioritized
	// for GETs while a healthy replica exists, never blocked. Zero value =
	// no tracking, routing byte-identical to before.
	Health HealthConfig
	// Membership is the replicated cluster's shared membership state machine
	// (nil on an unreplicated fleet: every key has one home server). With it
	// set the client routes each key within its replica set — Membership's
	// Factor members, primary first; reads go to the first live one, and
	// failover and hedging stay inside the set so a rerouted request lands
	// on a server that holds the key. The set comes from the epoch-versioned
	// view — during a migration the union of the old and new rings, so
	// failover can still reach an old owner holding a mid-handoff key — and
	// every epoch change invalidates the client's bypass location caches
	// and hot sets (a one-sided READ must never hit a moved key's stale
	// slot on the strength of a pre-transition cache).
	Membership *replication.Membership
}

const (
	// respRegionBytes sizes each connection's registered response region:
	// the largest item plus header room.
	respRegionBytes = 1<<20 + 4096
	// prepCost is the library-side cost to build one request header.
	prepCost = 300 * sim.Nanosecond
)

// Host-side copy bandwidth for landing fetched values in user buffers.
const memcpyBps = 8_000_000_000

func memcpyTime(size int) sim.Time {
	if size <= 0 {
		return 0
	}
	return sim.Time(float64(size) / float64(memcpyBps) * float64(sim.Second))
}

// Req is the memcached_req analog: the handle for one in-flight operation.
type Req struct {
	// ID is the request id on the wire.
	ID uint64
	// Op is the issued opcode.
	Op protocol.Opcode
	// Key is the requested key.
	Key string
	// Status is valid once Done fires.
	Status protocol.Status
	// Value / ValueSize hold the fetched value for Gets once Done fires.
	Value     any
	ValueSize int
	// Flags / CAS are the item metadata from the response.
	Flags uint32
	CAS   uint64
	// IssuedAt / CompletedAt are virtual timestamps.
	IssuedAt    sim.Time
	CompletedAt sim.Time
	// Attempts counts transmissions (1 without retries).
	Attempts int

	// Everything an operation needs on its common path is embedded by value
	// and set up in begin/initReq, so a request is one allocation: its three
	// events, its parsed options, its first attempt (with the wire message
	// that attempt sends), and the wait record of a bypass READ. Only a
	// retransmit, a hedge or a bypass fallback — a second attempt — allocates
	// again, and the request owns those too: its attempts are chained from
	// first in the order attach made them, cur the latest, and finish settles
	// whichever are still outstanding. The server and the fabric hold pointers
	// into first.wire while the message is in flight, which keeps the whole Req
	// reachable until then; nothing is ever recycled, so no holder can outlive
	// it. first.wire is also the template later attempts copy their message
	// from: written in initReq and by the first attach, never after.
	done     sim.Event // server response received ("completion flag")
	reusable sim.Event // user buffers reusable
	nudge    sim.Event // guard wakeup: attempt rejected as retryable (recovering/busy)
	c        *Client
	conn     *conn     // connection of the latest attempt
	cur      *attempt  // the latest attempt; nil until the first exists
	first    attempt   // the first attempt's record
	opts     issueOpts // as parsed from Issue's options
	read     readWait  // the bypass resolver's READ in flight (one at a time)

	// rejected is the sentinel of the current attempt's retryable
	// rejection (ErrBusy, ErrRecovering); cleared on retransmit. When the
	// retry budget runs out right after such a rejection, Err surfaces it
	// instead of the generic deadline error.
	rejected error
	// retryAfter is the server's busy hint: it floors the guard's next
	// backoff. Cleared on retransmit.
	retryAfter sim.Time

	// What is behind Err and the accessors below.
	how      outcome // how the request ended (finish); meaningless until done fires
	acked    bool    // BufferAck received: the server holds the request
	bypassed bool    // completed via one-sided bypass READ, no server CPU
}

// Done reports whether the operation has completed (memcached_test).
func (r *Req) Done() bool { return r.done.Fired() }

// tagPanic, deferred by a request's helper process (bypass resolver, guard,
// hedge), adds the request id to a panic passing through it. Those
// processes share one constant name each — a formatted name per request was
// two allocations on every GET — so the id would otherwise be lost.
func (r *Req) tagPanic() {
	if v := recover(); v != nil {
		panic(fmt.Sprintf("request %d (%v %q): %v", r.ID, r.Op, r.Key, v))
	}
}

// TimedOut reports whether the operation ended by deadline expiry.
func (r *Req) TimedOut() bool { return r.how == timedOut }

// Canceled reports whether the operation was abandoned by Cancel.
func (r *Req) Canceled() bool { return r.how == canceled }

// Acked reports whether the server acknowledged buffering the request (a
// BufferAck arrived, individually or covering the request's whole batch).
func (r *Req) Acked() bool { return r.acked }

// Bypassed reports whether the GET resolved on the server-bypass path —
// one-sided READs, zero server CPU — rather than request/response.
func (r *Req) Bypassed() bool { return r.bypassed }

// Client is the libmemcached handle (memcached_st analog).
type Client struct {
	env *sim.Env
	cfg Config

	// RDMA mode
	dev *verbs.Device
	pd  *verbs.PD

	// IPoIB mode
	host *verbs.Host

	conns []*conn
	// ring is the ketama ring the server-side replicators use too: every
	// party must agree on each key's replica set, so there is one
	// implementation, in internal/replication.
	ring      *replication.Ring
	nextID    uint64
	buffering bool
	batching  int // explicit BeginBatch/Flush window depth

	// Hot-key serving state (Config.HotFanout; see hotread.go): the union
	// of the per-connection hot sets, a round-robin cursor spreading hot
	// GETs across replica sets, and the issue counter that paces hot-set
	// refresh queries.
	hot          map[uint64]struct{}
	hotRR        uint64
	hotGets      uint64
	hotSampleSeq uint64 // auto-path GETs seen, for the 1-in-N RPC heat sample

	// Prof accumulates the client-side stages (client wait, miss penalty
	// is recorded by the workload driver).
	Prof *metrics.Breakdown

	// Faults counts recovery activity under the typed counters in
	// internal/metrics (metrics.CRetries, CTimeouts, …). Read individual
	// counters with Faults.Val, or take a whole snapshot with Stats.
	Faults *metrics.Counters

	// Stats
	Issued, Completed int64
	// Doorbell accounting: Sends counts wire sends — also the flow-control
	// credits consumed; Frames counts coalesced BatchFrames among them and
	// FrameOps the operations those frames carried.
	Sends, Frames, FrameOps int64
}

// ClientStats is a point-in-time snapshot of a client's operation and fault
// counters, taken with Client.Stats. It replaces reaching into the Faults
// counter map with string keys.
type ClientStats struct {
	// Operation flow.
	Issued, Completed       int64
	Sends, Frames, FrameOps int64
	// Recovery machinery.
	Retries, Timeouts, Cancels             int64
	Failovers, FailoverSkips, AckedRetries int64
	Hedges, HedgesSuppressed               int64
	StaleResponses                         int64
	// Server rejections.
	Busy, Recovering, NoReplica int64
	// Circuit breakers.
	BreakerOpen, BreakerHalfOpen, BreakerClose, BreakerReroutes int64
	// Server-bypass read path: GETs resolved one-sided, those among them
	// that took exactly one READ (the value rode in the slot, or sat at a
	// cached segment offset), attempts that fell back to RPC, and
	// directory bootstraps.
	BypassHits, BypassFastPath, BypassFallbacks, BypassBootstraps int64
	// What the hits cost: READs posted by the GETs that hit, and the bytes
	// those READs asked for.
	BypassHitReads, BypassHitReadBytes int64
	// Slot re-READs after a transient seqlock doubt, every one-sided READ
	// posted (hits and fallbacks alike), and the doorbells they cost after
	// coalescing.
	BypassReprobes, BypassReads, BypassReadDoorbells int64
	// Hot-key serving: hot GETs fanned out across replica sets, hot-set
	// refreshes, and GETs sampled through RPC for the server's heat sketch.
	HotFanouts, HotRefreshes, HotSamples int64
	// Gray-failure defense: service-time samples taken, brown-out state
	// transitions, and GETs routed around a browned connection. (Pacer
	// deferrals — the server-side half of the defense — count on the
	// replicators' counter sets under metrics.CPacerDeferrals.)
	HealthSamples                     int64
	BrownoutsEntered, BrownoutsExited int64
	SlowRoutedGets                    int64
}

// Stats snapshots the client's counters.
func (c *Client) Stats() ClientStats {
	f := c.Faults
	return ClientStats{
		Issued: c.Issued, Completed: c.Completed,
		Sends: c.Sends, Frames: c.Frames, FrameOps: c.FrameOps,
		Retries:   f.Val(metrics.CRetries),
		Timeouts:  f.Val(metrics.CTimeouts),
		Cancels:   f.Val(metrics.CCancels),
		Failovers: f.Val(metrics.CFailovers), FailoverSkips: f.Val(metrics.CFailoverSkip),
		AckedRetries: f.Val(metrics.CAckedRetries),
		Hedges:       f.Val(metrics.CHedges), HedgesSuppressed: f.Val(metrics.CHedgesSuppressed),
		StaleResponses: f.Val(metrics.CStaleResponses),
		Busy:           f.Val(metrics.CBusy),
		Recovering:     f.Val(metrics.CRecovering),
		NoReplica:      f.Val(metrics.CNoReplica),
		BreakerOpen:    f.Val(metrics.CBreakerOpen), BreakerHalfOpen: f.Val(metrics.CBreakerHalfOpen),
		BreakerClose: f.Val(metrics.CBreakerClose), BreakerReroutes: f.Val(metrics.CBreakerReroutes),
		BypassHits: f.Val(metrics.CBypassHits), BypassFastPath: f.Val(metrics.CBypassFastPath),
		BypassFallbacks: f.Val(metrics.CBypassFallbacks), BypassBootstraps: f.Val(metrics.CBypassBootstraps),
		BypassReprobes: f.Val(metrics.CBypassReprobes), BypassReads: f.Val(metrics.CBypassReads),
		BypassHitReads: f.Val(metrics.CBypassHitReads), BypassHitReadBytes: f.Val(metrics.CBypassHitReadBytes),
		BypassReadDoorbells: f.Val(metrics.CBypassReadDoorbells),
		HotFanouts:          f.Val(metrics.CHotFanouts), HotRefreshes: f.Val(metrics.CHotRefreshes),
		HotSamples:       f.Val(metrics.CHotSamples),
		HealthSamples:    f.Val(metrics.CHealthSamples),
		BrownoutsEntered: f.Val(metrics.CBrownoutsEntered), BrownoutsExited: f.Val(metrics.CBrownoutsExited),
		SlowRoutedGets: f.Val(metrics.CSlowRoutedGets),
	}
}

type conn struct {
	c        *Client
	serverID int
	// RDMA state
	qp           *verbs.QP
	sendCQ       *verbs.CQ
	recvCQ       *verbs.CQ
	respMR       *verbs.MR
	credits      *sim.Resource
	txq          *sim.Queue[txItem]
	pending      map[uint64]*attempt
	pendingBatch map[uint64]*txBatch // in-flight coalesced frames by batch id
	window       []*attempt          // ops parked by an open BeginBatch window
	// IPoIB state
	stream   *verbs.Stream
	buffered []*protocol.Request // libmemcached-style deferred Sets
	// brk is the per-server circuit breaker (nil when Config.Breaker is
	// zero: no state, no routing change). Released on Retire.
	brk *breaker
	// health is the latency-aware health tracker (nil when Config.Health
	// is zero: no samples, no brown-outs). Released on Retire.
	health *connHealth
	// retired marks a decommissioned server's connection: it takes no new
	// traffic and its routing/bypass/breaker state has been released.
	retired bool
	// memEpoch is the last membership epoch observed on this connection's
	// directory answers; a newer one invalidates the location cache.
	memEpoch uint64
	// Bypass read-path state (Config.Bypass only; see bypass.go): the
	// bootstrapped directory geometry, the single-flight bootstrap latch,
	// resolvers parked on READ completions, and the segment locations of
	// out-of-line values resolved before (inline values need no client
	// state: the slot READ is the whole lookup).
	dir       *protocol.DirectoryInfo
	dirState  int
	dirFetch  *sim.Event
	readWaits map[uint64]*readWait
	locs      map[string]locEntry
	// readq feeds the READ-coalescing engine: concurrent resolvers enqueue
	// WRs here and the engine sweeps the backlog under one doorbell, building
	// each chain in readWRs (reused: the post copies the WRs out).
	readq   *sim.Queue[verbs.SendWR]
	readWRs []verbs.SendWR
	// Hot-key state: this server's published hot set and version, and the
	// single-flight latch for in-progress refresh queries.
	hotSet     []uint64
	hotVersion uint64
	hotRefresh bool
}

// New creates a client on node. Connections are added with ConnectRDMA or
// ConnectIPoIB, one per server, before issuing operations.
func New(env *sim.Env, node *simnet.Node, cfg Config) *Client {
	if cfg.Health.Enabled {
		cfg.Health.fill()
	}
	c := &Client{env: env, cfg: cfg, Prof: metrics.NewBreakdown(), Faults: metrics.NewCounters()}
	if cfg.Transport == RDMA {
		c.dev = verbs.OpenDevice(node)
		c.pd = c.dev.AllocPD()
	} else {
		c.host = verbs.NewHost(node)
	}
	c.ring = replication.NewRing()
	if cfg.Membership != nil {
		// Every epoch change — transition begin and finalize — invalidates
		// the per-connection bypass location caches and hot sets: both were
		// computed against the old placement.
		cfg.Membership.Subscribe(func(epoch uint64, final bool) {
			c.invalidatePlacement(epoch)
		})
	}
	return c
}

// invalidatePlacement drops every placement-derived cache: per-connection
// cached segment locations and hot sets, plus the hot union. Directory
// geometry (MR keys, bucket counts) stays — it is a server property, not a
// placement one, and the seqlock validation path catches individual slots
// that move afterwards.
func (c *Client) invalidatePlacement(epoch uint64) {
	for _, cn := range c.conns {
		if cn.memEpoch >= epoch {
			continue
		}
		cn.memEpoch = epoch
		clear(cn.locs)
		cn.hotSet, cn.hotVersion = nil, 0
	}
	c.rebuildHot()
	c.Faults.Inc(metrics.CEpochInvalidations)
}

// Retire releases every piece of client state held for a decommissioned
// server: the connection stops taking traffic, and its circuit breaker,
// bypass directory/location cache, and hot-set contribution are dropped —
// none of them may outlive the node they describe. The engines stay parked
// on their queues; a retired connection simply never gets new work.
func (c *Client) Retire(serverID int) {
	if serverID < 0 || serverID >= len(c.conns) {
		return
	}
	cn := c.conns[serverID]
	if cn.retired {
		return
	}
	cn.retired = true
	cn.brk = nil
	cn.health = nil
	cn.dir, cn.dirState = nil, dirNone
	clear(cn.locs)
	cn.hotSet, cn.hotVersion = nil, 0
	c.rebuildHot()
	c.Faults.Inc(metrics.CRetiredConns)
}

// ErrTransport reports an API unavailable on this transport.
var ErrTransport = errors.New("core: operation not supported on this transport")

// RDMAServer is the server-side hookup surface the client needs: it accepts
// the client's QP and states its receive depth (flow-control credits).
type RDMAServer interface {
	AcceptQP(clientQP *verbs.QP) *verbs.QP
	RecvDepth() int
}

// ConnectRDMA establishes a verbs connection to the server: creates the QP,
// registers the response region, pre-posts receives, and starts the TX and
// progress engines. Setup is free in simulated time (connection setup is
// not a measured path).
func (c *Client) ConnectRDMA(srv RDMAServer) {
	if c.cfg.Transport != RDMA {
		panic("core: ConnectRDMA on an IPoIB client")
	}
	sendCQ := c.dev.CreateCQ(0)
	recvCQ := c.dev.CreateCQ(0)
	qp := c.dev.CreateQP(sendCQ, recvCQ)
	cn := &conn{
		c:            c,
		serverID:     len(c.conns),
		qp:           qp,
		sendCQ:       sendCQ,
		recvCQ:       recvCQ,
		respMR:       c.pd.RegisterMRSetup(respRegionBytes),
		credits:      sim.NewResource(c.env, srv.RecvDepth()),
		txq:          sim.NewQueue[txItem](c.env, 0),
		pending:      make(map[uint64]*attempt),
		pendingBatch: make(map[uint64]*txBatch),
	}
	if c.cfg.Breaker.Threshold > 0 {
		cn.brk = newBreaker(c, c.cfg.Breaker)
	}
	if c.cfg.Health.Enabled {
		cn.health = &connHealth{}
	}
	if c.cfg.Membership != nil {
		// Seed with the current epoch: learning it from the first directory
		// answer is bootstrap, not an invalidation.
		cn.memEpoch = c.cfg.Membership.Epoch()
	}
	srv.AcceptQP(qp)
	// The client consumes one local receive per inbound WRITE_IMM; keep a
	// generous pool re-posted by the progress engine.
	for i := 0; i < 2*srv.RecvDepth(); i++ {
		qp.PostRecv(verbs.RecvWR{})
	}
	c.conns = append(c.conns, cn)
	c.ring.Add(cn.serverID)
	name := fmt.Sprintf("client/conn%d", cn.serverID)
	c.env.Spawn(name+"/tx", cn.txEngine)
	c.env.Spawn(name+"/progress", cn.progressEngine)
	if c.cfg.Bypass {
		cn.readWaits = make(map[uint64]*readWait)
		cn.locs = make(map[string]locEntry)
		cn.readq = sim.NewQueue[verbs.SendWR](c.env, 0)
		c.env.Spawn(name+"/bypass", cn.bypassEngine)
		c.env.Spawn(name+"/reads", cn.readEngine)
	}
}

// IPoIBServer is the stream-transport hookup surface.
type IPoIBServer interface {
	Host() *verbs.Host
}

// ConnectIPoIB dials a default-Memcached server over the socket stack.
func (c *Client) ConnectIPoIB(srv IPoIBServer) {
	if c.cfg.Transport != IPoIB {
		panic("core: ConnectIPoIB on an RDMA client")
	}
	cn := &conn{c: c, serverID: len(c.conns), stream: c.host.Dial(srv.Host())}
	if c.cfg.Breaker.Threshold > 0 {
		cn.brk = newBreaker(c, c.cfg.Breaker)
	}
	if c.cfg.Health.Enabled {
		cn.health = &connHealth{}
	}
	c.conns = append(c.conns, cn)
	c.ring.Add(cn.serverID)
}

// initReq makes req — zero but for its parsed options — the handle for op as
// of now, and writes the wire template its attempts are built from.
func (c *Client) initReq(req *Req, op Op) {
	c.nextID++
	req.ID = c.nextID
	req.Op = op.Code
	req.Key = op.Key
	req.c = c
	req.IssuedAt = c.env.Now()
	req.first.wire = protocol.Request{
		Op: op.Code, Key: op.Key,
		Flags: op.Flags, Expire: op.Expire,
		ValueSize: op.ValueSize, Value: op.Value,
		CAS: op.CAS, Delta: op.Delta,
		AckWanted: req.opts.ack,
	}
	req.done.Init(c.env)
	req.reusable.Init(c.env)
	req.nudge.Init(c.env)
}

// --- Non-blocking API extensions (Listing 1) ---
//
// These are thin wrappers over Issue, kept for source compatibility with
// the paper's iset/iget/bset/bget names.

// ISet issues a non-blocking Set. The key/value buffers must NOT be reused
// until Wait/Test report completion (memcached_iset).
func (c *Client) ISet(p *sim.Proc, key string, valueSize int, value any, flags, expire uint32) (*Req, error) {
	return c.Issue(p, Op{Code: protocol.OpSet, Key: key, ValueSize: valueSize, Value: value, Flags: flags, Expire: expire})
}

// IGet issues a non-blocking Get. The key buffer must NOT be reused until
// Wait/Test report completion (memcached_iget).
func (c *Client) IGet(p *sim.Proc, key string) (*Req, error) {
	return c.Issue(p, Op{Code: protocol.OpGet, Key: key})
}

// BSet issues a non-blocking Set and returns once the key/value buffers are
// reusable (memcached_bset): when the value has left the NIC, or — against
// an async server — when the server acknowledges it is buffered.
func (c *Client) BSet(p *sim.Proc, key string, valueSize int, value any, flags, expire uint32) (*Req, error) {
	return c.Issue(p, Op{Code: protocol.OpSet, Key: key, ValueSize: valueSize, Value: value, Flags: flags, Expire: expire}, WithBufferAck())
}

// BGet issues a non-blocking Get and returns once the key buffer is
// reusable (memcached_bget).
func (c *Client) BGet(p *sim.Proc, key string) (*Req, error) {
	return c.Issue(p, Op{Code: protocol.OpGet, Key: key}, WithBufferAck())
}

// Test reports whether the operation has completed without blocking
// (memcached_test).
func (c *Client) Test(req *Req) bool { return req.done.Fired() }

// Wait blocks until the operation completes (memcached_wait) and records
// the blocked duration as the client-wait stage.
func (c *Client) Wait(p *sim.Proc, req *Req) {
	t0 := p.Now()
	p.Wait(&req.done)
	c.Prof.Add(metrics.StageClientWait, p.Now()-t0)
}

// WaitTimeout waits up to d of virtual time for the operation. On timeout
// the request completes locally with ErrDeadlineExceeded (its flow-control
// credit is reclaimed) and false is returned.
func (c *Client) WaitTimeout(p *sim.Proc, req *Req, d sim.Time) bool {
	t0 := p.Now()
	ok := p.WaitTimeout(&req.done, d)
	c.Prof.Add(metrics.StageClientWait, p.Now()-t0)
	if !ok {
		req.finish(timedOut, nil)
	}
	return ok
}

// WaitAny blocks until any request in the batch completes and returns its
// index (first-completed dispatch for overlap patterns).
func (c *Client) WaitAny(p *sim.Proc, reqs []*Req) int {
	if len(reqs) == 0 {
		return -1
	}
	t0 := p.Now()
	evs := make([]*sim.Event, len(reqs))
	for i, r := range reqs {
		evs[i] = &r.done
	}
	i := p.WaitAny(evs...)
	c.Prof.Add(metrics.StageClientWait, p.Now()-t0)
	return i
}

// WaitAll waits for a batch of requests (block-by-block completion of the
// bursty I/O pattern). Every request is drained even when one fails; the
// first non-nil Err in batch order is returned.
func (c *Client) WaitAll(p *sim.Proc, reqs []*Req) error {
	var first error
	for _, r := range reqs {
		c.Wait(p, r)
		if err := r.Err(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// --- Blocking API (default libmemcached semantics) ---
//
// Set and Get are the paper's memcached_set/get: one Issue and its Wait.
// Every other command is spelled Issue(p, Op{Code: ...}) — see commands.go.

// Set stores a value and blocks for the server's reply (memcached_set).
// With buffering enabled (SetBuffering), the Set is deferred client-side
// instead, as classic libmemcached does.
func (c *Client) Set(p *sim.Proc, key string, valueSize int, value any, flags, expire uint32) protocol.Status {
	return c.roundTrip(p, Op{Code: protocol.OpSet, Key: key, ValueSize: valueSize, Value: value, Flags: flags, Expire: expire}).Status
}

// Get fetches a value and blocks for the reply (memcached_get). With
// buffering enabled, the Get first pushes out the queued Sets — the
// overhead the paper's Section IV-A attributes to the behaviour-based mode.
func (c *Client) Get(p *sim.Proc, key string) (value any, size int, status protocol.Status) {
	req := c.roundTrip(p, Op{Code: protocol.OpGet, Key: key})
	return req.Value, req.ValueSize, req.Status
}

// roundTrip runs op to completion on the connection its key routes to and
// returns its handle: Issue + Wait.
func (c *Client) roundTrip(p *sim.Proc, op Op, opts ...IssueOption) *Req {
	req, _ := c.Issue(p, op, opts...)
	c.Wait(p, req)
	return req
}

// ipoibExchange performs one blocking request/response on cn over the
// socket stack: the send blocks for the kernel copy (buffers reusable on
// return), then the client waits for the reply. The request's own options
// bound that wait: under WithRetry every receive gets AttemptTimeout and the
// request is resent up to MaxAttempts-1 times, under WithDeadline alone the
// one receive gets the deadline, with neither it waits forever; past the
// budget the request fails with ErrDeadlineExceeded. Hedge, failover, backoff
// and BufferAck are ignored: a blocking socket carries one exchange at a time
// to one server and its send has already copied the buffers, so none of them
// has anything to act on.
func (c *Client) ipoibExchange(p *sim.Proc, cn *conn, op Op, req *Req) *Req {
	o := &req.opts
	o.ack = false
	timeout, resends := o.deadline, 0
	if o.retry != nil {
		pol := *o.retry
		pol.fill()
		timeout, resends = pol.AttemptTimeout, pol.MaxAttempts-1
	}
	p.Sleep(prepCost)
	c.initReq(req, op)
	// The exchange is the request's one attempt, resends included: it holds
	// nothing a socket connection could give back but its verdict.
	att := req.attach(cn, attOffWire)
	wire := &att.wire // a socket connection has no response region to name
	c.Issued++
	c.Sends++
	cn.stream.Send(p, wire.WireSize(), wire)
	att.start = p.Now() // a socket attempt's service time runs from the end of the blocking send
	for !req.done.Fired() {
		var msg verbs.StreamMsg
		var ok, late bool
		if timeout > 0 {
			msg, ok, late = cn.stream.RecvTimeout(p, timeout)
		} else {
			msg, ok = cn.stream.Recv(p)
		}
		switch {
		case late && req.Attempts <= resends:
			req.Attempts++
			c.Faults.Inc(metrics.CRetries)
			c.Sends++
			cn.stream.Send(p, wire.WireSize(), wire)
		case late:
			req.finish(timedOut, nil)
		case !ok: // the stream closed under the exchange
			req.finish(completed, &protocol.Response{Status: protocol.StatusError})
		default:
			resp := msg.Payload.(*protocol.Response)
			if resp.ReqID != req.ID {
				continue // stale reply from an abandoned request
			}
			att.settle(answered)
			p.Sleep(memcpyTime(resp.ValueSize))
			req.finish(completed, resp)
		}
	}
	c.Prof.Add(metrics.StageClientWait, p.Now()-att.start)
	return req
}
