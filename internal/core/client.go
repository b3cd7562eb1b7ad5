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
// (ErrNotFound, ErrDeadlineExceeded, ErrCanceled, …). Once read, a request
// is handed back with Release, and the client reuses its record for a later
// Issue.
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
//	    status, Err, timing); the caller's req struct, reused for its next
//	    operation → Client.Release, then the next Issue
//	memcached_add/cas/incr/… → Issue(p, Op{Code: protocol.OpAdd, ...})
//	    (commands.go keeps Gets, which an Op cannot spell)
//
// Runtime structure per connection (violet/red/green paths of Figure 3):
// a TX engine process drains an issue queue, respecting per-connection
// flow-control credits (the server's pre-posted receive depth), posts the
// work request, and fires the request's buffer-reusable event at DMA-sent
// time; the progress engine, the receive CQ's completion handler, hands each
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

	"hybridkv/internal/keytab"
	"hybridkv/internal/metrics"
	"hybridkv/internal/pool"
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
	// (breaker.go) that opens after this many consecutive busy rejections
	// or attempt timeouts from one server and half-opens breakerCooldown
	// later. Zero = no breakers, routing unchanged.
	Breaker int
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
	// (health.go): per-op-class service-time tracking that puts
	// persistently slow servers in a brown-out — deprioritized for GETs
	// while a healthy replica exists, never blocked. False = no tracking,
	// routing byte-identical to before.
	Health bool
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

// Req is the memcached_req analog: the handle for one operation. A caller
// that keeps its handles keeps one Req per operation, so its size is the
// host's bytes per operation: 80 bytes, the 80-byte size class
// (TestRequestRecordSizes). It keeps the answer, and while the request is in
// flight the latest of its attempts. Everything else it needs in flight —
// the key, each transmission's wire message and id, the connection it went
// on, the buffer-reusable and guard events, the waiters on the completion
// flag, whether it retries — lives on its attempts, which come off the
// client's list and go back once the request has ended and their last holder
// has let go; the retry policy and the deadline live in its guard.
type Req struct {
	// Op is the issued opcode.
	Op protocol.Opcode
	// Status is valid once Done fires.
	Status protocol.Status
	// rejected is the status of the current attempt's retryable rejection
	// (StatusBusy, StatusRecovering); StatusOK, which rejects nothing, when
	// there is none. Cleared on retransmit. When the retry budget runs out
	// right after such a rejection, Err surfaces its sentinel instead of the
	// generic deadline error.
	rejected protocol.Status
	// how is how the request ended (finish); meaningless until done.
	how outcome
	// Flags / CAS are the item metadata from the response.
	Flags uint32
	CAS   uint64
	// Value / ValueSize hold the fetched value for Gets once Done fires.
	Value     any
	ValueSize int
	// IssuedAt / CompletedAt are virtual timestamps.
	IssuedAt    sim.Time
	CompletedAt sim.Time
	// Attempts counts transmissions (1 without retries).
	Attempts int

	// cur is the latest attempt, from initReq until finish, and nil after.
	// The attempts are a ring through their next links in the order attach
	// made them, kept by the latest: cur.next is the first, whose events are
	// the request's (first). finish settles every one, then lets go of the
	// ring.
	cur *attempt

	done     bool // the request ended ("completion flag"): finish set it
	acked    bool // BufferAck received: the server holds the request
	bypassed bool // completed via one-sided bypass READ, no server CPU
	released bool // the caller's hold is given back (Release)
	// The record is recycled through its client's free list (Client.reqs,
	// DESIGN §16). The caller holds it from Issue until Release, and so do a
	// guard and a hedge process until they return; nothing else points into
	// it once the request has ended.
	pool.Holds
}

// hold adds one holder of the record; holding a free record panics.
func (r *Req) hold() { pool.Hold(r) }

// drop gives back one hold of c's request; the last one puts the record back
// on c's free list, zeroed. Dropping a hold nobody took panics. The holder
// names the client: the record keeps no pointer to it.
func (r *Req) drop(c *Client) {
	if pool.Drop(r) {
		c.reqs.Put(r)
	}
}

// first is the request's first attempt, whose buffer-reusable, guard and
// completion events are the request's. Only a request in flight has one.
func (r *Req) first() *attempt { return r.cur.next }

// ended is the completion event of every request that has ended: fired once
// and for good, so a wait on it returns at once and touches nothing.
var ended = func() (ev sim.Event) {
	ev.Fire()
	return ev
}()

// event is what a wait for the request parks on: its first attempt's done
// event while it is in flight — finish fires it — and ended once it has
// ended.
func (r *Req) event() *sim.Event {
	if r.done {
		return &ended
	}
	return &r.first().done
}

// newReq hands out a zero request record holding one hold, its caller's. It
// panics if the record was touched after its last drop.
func (c *Client) newReq() *Req {
	r := c.reqs.Get()
	if r.cur != nil || r.done || r.Attempts != 0 {
		panic("core: a free request was touched after its last release")
	}
	return r
}

// Release gives the caller's hold on req back: the caller has read what it
// keeps of the request, and the client may reuse the record for another
// operation once a guard or hedge process still running for it has returned.
// Every request Issue returns is released at most once, after it is done, on
// the client that issued it: the record keeps no pointer to its client, so
// released on another it goes on that one's free list, and both clients'
// censuses then report the crossing (a record missing on one, one it never
// made free on the other). A
// caller that never releases keeps only the answer: the request's attempts,
// its wire messages among them, went back to the client when it ended, and
// the record itself goes to the GC. Releasing a request that is not done, or
// a second time, panics. The blocking calls (Set, Get, Gets) release their
// own.
func (c *Client) Release(req *Req) {
	if !req.done {
		panic("core: Release of a request that is not done (or was released already)")
	}
	if req.released {
		panic("core: request released twice")
	}
	req.released = true
	req.drop(c)
}

// Census tallies the client's pooled records at a drained quiesce. Once the
// callers have released what they issued, every request record is free;
// every attempt is free or kept for good, held by its unanswered message
// alone; and every resolution is free, its resolver returned.
func (c *Client) Census() []pool.Tally {
	var kept pool.Walk[attempt, *attempt]
	for _, att := range c.kept { // order-free: a count
		kept.Visit(att)
	}
	return []pool.Tally{
		pool.Count("requests", &c.reqs, nil, 0),
		pool.Count("attempts", &c.attempts, &kept, 0),
		pool.Count("resolutions", &c.resolutions, nil, 0),
	}
}

// Done reports whether the operation has completed (memcached_test).
func (r *Req) Done() bool { return r.done }

// retag adds the request's wire id, opcode and key to a panic v recovered in
// one of its helper processes (bypass resolver, guard, hedge). Those
// processes share one constant name each — a formatted name per request was
// two allocations on every GET — so the request would otherwise be lost. The
// record keeps neither id nor key, so each process names the request by what
// it keeps: the resolver by the attempt it holds (attempt.tagPanic), a guard
// or a hedge by its first attempt's id and key, taken when it started.
// Env.Close unwinding the process is no fault and passes through untouched.
func retag(v any, id uint64, op protocol.Opcode, key string) {
	if v == nil {
		return
	}
	if sim.Unwinding(v) {
		panic(v)
	}
	panic(fmt.Sprintf("request %d (%v %q): %v", id, op, key, v))
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
	batching  bool // an explicit BeginBatch/Flush window is open

	// Hot-key serving state (Config.HotFanout; see hotread.go): a
	// round-robin cursor spreading hot GETs across replica sets, and the GET
	// counter that paces hot-set refreshes and the heat samples riding them.
	hotRR   uint64
	hotGets uint64

	// Bypass GETs waiting for their resolver process, oldest first, and the
	// function every resolver is spawned with, bound once here so a spawn
	// builds no closure (startBypass).
	resolving *sim.Queue[*resolution]
	resolver  func(*sim.Proc)

	// reqs is the free list of request records (newReq, Req.drop);
	// attempts that of attempts (initReq, attach, attempt.drop); kept holds,
	// by wire id, the attempts whose message a server may still read though
	// it never answered it (attempt.settle, the socket exchange and flushConn
	// keep them; on RDMA a late answer hands one back, land);
	// resolutions is the free list of bypass resolutions (startBypass,
	// resolution.release).
	reqs        pool.List[Req, *Req]
	attempts    pool.List[attempt, *attempt]
	kept        map[uint64]*attempt
	resolutions pool.List[resolution, *resolution]

	// opts is Issue's scratch record of its parsed options, read only
	// before Issue first suspends (issueOpts).
	opts issueOpts

	// Counters holds the client's counts, one slot per registered
	// metrics.Counter: operations, wire sends and frames, and the recovery,
	// routing and bypass activity. Read one with Counters.Val.
	Counters metrics.Counters
}

// ClientStats is the snapshot of a client's counters that benchmark/layers.go
// reads, taken with Client.Stats.
type ClientStats struct {
	Sends, Frames                        int64
	Retries, Timeouts, Failovers, Hedges int64
	Busy, Recovering, NoReplica          int64
	BypassHits, BypassFastPath           int64
	BypassFallbacks, BypassReprobes      int64
	BypassReads, BypassReadDoorbells     int64
	HotFanouts                           int64
}

// Stats snapshots the client's counters.
func (c *Client) Stats() ClientStats {
	v := c.Counters.Val
	return ClientStats{
		Sends: v(metrics.CSends), Frames: v(metrics.CFrames),
		Retries: v(metrics.CRetries), Timeouts: v(metrics.CTimeouts),
		Failovers: v(metrics.CFailovers), Hedges: v(metrics.CHedges),
		Busy: v(metrics.CBusy), Recovering: v(metrics.CRecovering), NoReplica: v(metrics.CNoReplica),
		BypassHits: v(metrics.CBypassHits), BypassFastPath: v(metrics.CBypassFastPath),
		BypassFallbacks: v(metrics.CBypassFallbacks), BypassReprobes: v(metrics.CBypassReprobes),
		BypassReads: v(metrics.CBypassReads), BypassReadDoorbells: v(metrics.CBypassReadDoorbells),
		HotFanouts: v(metrics.CHotFanouts),
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
	buffered []*attempt // libmemcached-style deferred Sets
	// brk is the per-server circuit breaker (nil when Config.Breaker is
	// zero: no state, no routing change). Released on Retire.
	brk *breaker
	// health is the latency-aware health tracker (nil when Config.Health
	// is false: no samples, no brown-outs). Released on Retire.
	health *connHealth
	// retired marks a decommissioned server's connection: it takes no new
	// traffic and its routing/bypass/breaker state has been released.
	retired bool
	// memEpoch is the last membership epoch observed on this connection's
	// directory answers; a newer one invalidates the location cache.
	memEpoch uint64
	// Bypass read-path state (Config.Bypass only; see bypass.go): the
	// bootstrapped directory geometry, the single-flight bootstrap latch,
	// resolutions parked on READ completions, and the segment locations of
	// out-of-line values resolved before (inline values need no client
	// state: the slot READ is the whole lookup).
	dir       *protocol.DirectoryInfo
	dirState  int
	dirFetch  *sim.Event
	readWaits map[uint64]*resolution // by WRID: the resolution whose READ it is
	locs      keytab.Table[locEntry]
	// readq feeds the READ-coalescing engine: concurrent resolvers enqueue
	// WRs here and the engine sweeps the backlog under one doorbell, building
	// each chain in readWRs (reused: the post copies the WRs out).
	readq   *sim.Queue[verbs.SendWR]
	readWRs []verbs.SendWR
	// Hot-key state: this server's published hot set and version, the
	// refresher's inbox (the sampled key of the refresh it is to send), and
	// the single-flight latch for the refresh in progress.
	hotSet     []uint64
	hotVersion uint64
	heat       *sim.Queue[protocol.Key]
	hotRefresh bool
}

// New creates a client on node. Connections are added with ConnectRDMA or
// ConnectIPoIB, one per server, before issuing operations.
func New(env *sim.Env, node *simnet.Node, cfg Config) *Client {
	c := &Client{env: env, cfg: cfg, resolving: sim.NewQueue[*resolution](env, 0), kept: make(map[uint64]*attempt)}
	c.resolver = c.resolveNext
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
// cached segment locations and hot sets. Directory
// geometry (MR keys, bucket counts) stays — it is a server property, not a
// placement one, and the seqlock validation path catches individual slots
// that move afterwards.
func (c *Client) invalidatePlacement(epoch uint64) {
	for _, cn := range c.conns {
		if cn.memEpoch >= epoch {
			continue
		}
		cn.memEpoch = epoch
		cn.locs.Clear()
		cn.hotSet, cn.hotVersion = nil, 0
	}
	c.Counters.Inc(metrics.CEpochInvalidations)
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
	cn.locs.Clear()
	cn.hotSet, cn.hotVersion = nil, 0
	c.Counters.Inc(metrics.CRetiredConns)
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
// registers the response region, pre-posts receives, starts the TX engine
// and hands the receive CQ to the progress engine. Setup is free in
// simulated time (connection setup is not a measured path).
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
	if c.cfg.Breaker > 0 {
		cn.brk = &breaker{c: c}
	}
	if c.cfg.Health {
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
	recvCQ.OnCompletion(cn.progress)
	if c.cfg.Bypass {
		cn.readWaits = make(map[uint64]*resolution)
		cn.readq = sim.NewQueue[verbs.SendWR](c.env, 0)
		cn.heat = sim.NewQueue[protocol.Key](c.env, 0)
		sendCQ.OnCompletion(cn.readDone)
		c.env.Spawn(name+"/reads", cn.readEngine)
		c.env.Spawn(name+"/refresh", cn.refresher)
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
	if c.cfg.Breaker > 0 {
		cn.brk = &breaker{c: c}
	}
	if c.cfg.Health {
		cn.health = &connHealth{}
	}
	c.conns = append(c.conns, cn)
	c.ring.Add(cn.serverID)
}

// initReq makes req — zero — the handle for op as of now, and takes its
// first attempt off the client's list, holding the request's hold, with the
// message every attempt sends (attach gives a later one a fresh id); ack asks
// the server for a BufferAck (WithBufferAck). The attempt waits for attach
// to place it.
func (c *Client) initReq(req *Req, op Op, ack bool) {
	c.nextID++
	req.Op = op.Code
	req.IssuedAt = c.env.Now()
	att := c.attempts.Get()
	att.req, att.next = req, att
	att.wire = protocol.Request{
		ReqID: c.nextID, Op: op.Code, Key: op.Key, KeyHash: op.hash, Flags: op.Flags,
		ValueSize: op.ValueSize, Value: op.Value,
		CAS: op.CAS, Delta: op.Delta,
		AckWanted: ack,
	}
	req.cur = att
}

// --- Non-blocking API extensions (Listing 1) ---
//
// These are thin wrappers over Issue, kept for source compatibility with
// the paper's iset/iget/bset/bget names.

// ISet issues a non-blocking Set. The key/value buffers must NOT be reused
// until Wait/Test report completion (memcached_iset).
func (c *Client) ISet(p *sim.Proc, key string, valueSize int, value any, flags uint32) (*Req, error) {
	return c.Issue(p, Op{Code: protocol.OpSet, Key: key, ValueSize: valueSize, Value: value, Flags: flags})
}

// IGet issues a non-blocking Get. The key buffer must NOT be reused until
// Wait/Test report completion (memcached_iget).
func (c *Client) IGet(p *sim.Proc, key string) (*Req, error) {
	return c.Issue(p, Op{Code: protocol.OpGet, Key: key})
}

// BSet issues a non-blocking Set and returns once the key/value buffers are
// reusable (memcached_bset): when the value has left the NIC, or — against
// an async server — when the server acknowledges it is buffered.
func (c *Client) BSet(p *sim.Proc, key string, valueSize int, value any, flags uint32) (*Req, error) {
	return c.Issue(p, Op{Code: protocol.OpSet, Key: key, ValueSize: valueSize, Value: value, Flags: flags}, WithBufferAck())
}

// BGet issues a non-blocking Get and returns once the key buffer is
// reusable (memcached_bget).
func (c *Client) BGet(p *sim.Proc, key string) (*Req, error) {
	return c.Issue(p, Op{Code: protocol.OpGet, Key: key}, WithBufferAck())
}

// Test reports whether the operation has completed without blocking
// (memcached_test).
func (c *Client) Test(req *Req) bool { return req.done }

// Wait blocks until the operation completes (memcached_wait).
func (c *Client) Wait(p *sim.Proc, req *Req) {
	p.Wait(req.event())
}

// WaitTimeout waits up to d of virtual time for the operation. On timeout
// the request completes locally with ErrDeadlineExceeded (its flow-control
// credit is reclaimed) and false is returned.
func (c *Client) WaitTimeout(p *sim.Proc, req *Req, d sim.Time) bool {
	ok := p.WaitTimeout(req.event(), d)
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
	evs := make([]*sim.Event, len(reqs))
	for i, r := range reqs {
		evs[i] = r.event()
	}
	return p.WaitAny(evs...)
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
// instead, as classic libmemcached does. The store keeps no expiry: expire is
// memcached's TTL argument, and anything but 0 panics.
func (c *Client) Set(p *sim.Proc, key string, valueSize int, value any, flags, expire uint32) protocol.Status {
	if expire != 0 {
		panic("core: Set with a TTL; the store keeps no expiry")
	}
	req := c.roundTrip(p, Op{Code: protocol.OpSet, Key: key, ValueSize: valueSize, Value: value, Flags: flags})
	status := req.Status
	c.Release(req)
	return status
}

// Get fetches a value and blocks for the reply (memcached_get). With
// buffering enabled, the Get first pushes out the queued Sets — the
// overhead the paper's Section IV-A attributes to the behaviour-based mode.
func (c *Client) Get(p *sim.Proc, key string) (value any, size int, status protocol.Status) {
	req := c.roundTrip(p, Op{Code: protocol.OpGet, Key: key})
	value, size, status = req.Value, req.ValueSize, req.Status
	c.Release(req)
	return value, size, status
}

// roundTrip runs op to completion on the connection its key routes to and
// returns its handle, which the caller releases: Issue + Wait.
func (c *Client) roundTrip(p *sim.Proc, op Op, opts ...IssueOption) *Req {
	req, _ := c.Issue(p, op, opts...)
	c.Wait(p, req)
	return req
}

// ipoibExchange performs one blocking request/response on cn over the
// socket stack: the send blocks for the kernel copy (buffers reusable on
// return), then the client waits for the reply. The request's own options
// bound that wait: under WithRetry (retry) every receive gets AttemptTimeout
// and the request is resent up to MaxAttempts-1 times, under WithDeadline
// (deadline) alone the one receive gets the deadline, with neither it waits
// forever; past the budget the request fails with ErrDeadlineExceeded.
// Hedge, failover, backoff and BufferAck are ignored: a blocking socket
// carries one exchange at a time to one server and its send has already
// copied the buffers, so none of them has anything to act on.
func (c *Client) ipoibExchange(p *sim.Proc, cn *conn, op Op, req *Req, deadline sim.Time, retry *RetryPolicy) *Req {
	timeout, resends := deadline, 0
	if retry != nil {
		pol := *retry
		pol.fill()
		timeout, resends = pol.AttemptTimeout, pol.MaxAttempts-1
	}
	p.Sleep(prepCost)
	c.initReq(req, op, false)
	// The exchange is the request's one attempt, resends included: it holds
	// nothing a socket connection could give back but its verdict. The
	// server reads its message in the attempt, which it holds until the
	// answer comes — for good if the message was sent more than once, since
	// the server may read another copy after answering one.
	att := req.attach(cn, attOffWire)
	wire := &att.wire // a socket connection has no response region to name
	c.Counters.Inc(metrics.CIssued)
	c.Counters.Inc(metrics.CSends)
	att.hold()
	cn.stream.Send(p, wire.WireSize(), wire)
	att.start = p.Now() // a socket attempt's service time runs from the end of the blocking send
	for !req.done {
		var msg verbs.StreamMsg
		heard := true
		if timeout > 0 {
			msg, heard = cn.stream.RecvTimeout(p, timeout)
		} else {
			msg = cn.stream.Recv(p)
		}
		switch {
		case !heard && req.Attempts <= resends:
			req.Attempts++
			c.Counters.Inc(metrics.CRetries)
			c.Counters.Inc(metrics.CSends)
			cn.stream.Send(p, wire.WireSize(), wire)
		case !heard:
			c.kept[att.wire.ReqID] = att
			req.finish(timedOut, nil)
		default:
			// The delivery's hold on the reply is released once finish has
			// copied it out, or at once for a stale one.
			resp := msg.Payload.(*protocol.Response)
			if resp.ReqID != att.wire.ReqID {
				resp.Release()
				continue // stale reply from an abandoned request
			}
			att.settle(answered)
			if req.Attempts == 1 {
				att.drop()
			} else {
				c.kept[att.wire.ReqID] = att
			}
			p.Sleep(sim.TransferTime(resp.ValueSize, sim.MemcpyBps))
			req.finish(completed, resp)
			resp.Release()
		}
	}
	return req
}
