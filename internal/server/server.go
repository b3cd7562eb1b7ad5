// Package server implements the Memcached server engine in the two pipeline
// designs the paper contrasts (Section V-B1, Figure 3):
//
//	Sync  — the request dispatcher executes the storage phase (slab
//	        allocation / SSD eviction / cache load) inline, then responds.
//	        While a hybrid eviction runs, no other request makes progress
//	        and no receive buffer is re-posted: this is the H-RDMA-Def /
//	        H-RDMA-Opt-Block behaviour whose client-side symptom is the
//	        long "client wait" stage.
//
//	Async — the dispatcher runs only the communication phase: it moves the
//	        request into a bounded buffer, re-posts the receive (returning a
//	        flow-control credit to the client) and sends an early BufferAck
//	        when the client asked for one. A pool of storage workers drains
//	        the buffer, executes the storage phase, and responds. Expensive
//	        hybrid-memory eviction thus happens asynchronously while the
//	        client proceeds — the enhancement behind H-RDMA-Opt-NonB-b/i.
//
// The RDMA path speaks verbs (two-sided SEND for requests, one-sided RDMA
// WRITE-with-immediate into the client's registered response region for
// responses); the IPoIB path speaks stream sockets.
package server

import (
	"fmt"

	"hybridkv/internal/hybridslab"
	"hybridkv/internal/metrics"
	"hybridkv/internal/protocol"
	"hybridkv/internal/replication"
	"hybridkv/internal/sim"
	"hybridkv/internal/simnet"
	"hybridkv/internal/store"
	"hybridkv/internal/verbs"
)

// Pipeline selects the request-handling design.
type Pipeline int

const (
	Sync Pipeline = iota
	Async
)

func (pl Pipeline) String() string {
	if pl == Async {
		return "async"
	}
	return "sync"
}

// Config tunes one server.
type Config struct {
	// Name identifies the server in logs and process names.
	Name string
	// Pipeline selects the sync or async design.
	Pipeline Pipeline
	// StorageWorkers is the async storage pool size (default 4).
	StorageWorkers int
	// BufferBytes bounds the async request buffer by memory, not request
	// count (default 2 MB). Buffered GET requests are header-sized, so
	// thousands fit and BufferAcks flow freely; buffered SET requests
	// carry their values, so when the storage pool falls behind writes,
	// the dispatcher stalls here, receives stop being re-posted, and
	// clients run out of credits — the backpressure that throttles bset
	// under write-heavy load (Figure 7(a)).
	BufferBytes int
	// Overload configures bounded admission with load shedding on the
	// async pipeline. The zero value disables it: the dispatcher blocks
	// on the buffer reservation exactly as before.
	Overload OverloadConfig
}

// OverloadConfig bounds admission on the async pipeline. When Enabled, the
// dispatcher never blocks on the buffer reservation: a request whose op
// class is over its watermark is shed with StatusBusy (plus a retry-after
// hint) instead of head-of-line-blocking the communication phase. Shedding
// happens strictly before buffering and before any BufferAck, and the
// storage queue is always drained, so acked work is never lost to shedding.
type OverloadConfig struct {
	Enabled bool
	// QueueHigh sheds writes once the storage queue is this deep
	// (default 256 tasks); reads are shed at 4×QueueHigh. This bounds
	// queueing delay even when BufferBytes alone would admit more work
	// (e.g. a flood of header-sized GETs).
	QueueHigh int
	// RetryAfterUnit scales the retry-after hint carried by a busy
	// response: hint = unit × (queue depth / storage workers + 1), capped
	// at maxRetryAfter (default 20 µs).
	RetryAfterUnit sim.Time
}

const (
	// recvDepth is the number of receives pre-posted per client QP, which
	// equals the flow-control credits each client connection gets.
	// Deliberately deep: like the reference system, request admission is
	// governed by the buffer-memory bound (Config.BufferBytes), not by
	// receive credits, so small requests are never throttled behind bulk
	// responses.
	recvDepth = 16384
	// parseCost is the per-request header parse/dispatch cost; batchOpCost
	// is the incremental cost per additional header in a coalesced
	// BatchFrame: unpacking N ops from one frame costs parseCost +
	// (N-1)·batchOpCost, far below N·parseCost.
	parseCost   = 400 * sim.Nanosecond
	batchOpCost = 100 * sim.Nanosecond
	// shedSetWatermark and shedGetWatermark are the fractions of
	// BufferBytes above which bounded admission sheds the matching op
	// class. Writes carry their values and are rejected long before reads:
	// shedding a SET frees the most buffer memory per rejection, while
	// buffered GETs are header-sized and stay admitted until the buffer is
	// nearly exhausted.
	shedSetWatermark = 0.5
	shedGetWatermark = 0.9
	// maxRetryAfter caps the retry-after hint of a busy response.
	maxRetryAfter = sim.Millisecond
)

func (oc *OverloadConfig) fill() {
	if oc.QueueHigh <= 0 {
		oc.QueueHigh = 256
	}
	if oc.RetryAfterUnit <= 0 {
		oc.RetryAfterUnit = 20 * sim.Microsecond
	}
}

func (c *Config) fill() {
	if c.StorageWorkers <= 0 {
		c.StorageWorkers = 4
	}
	if c.BufferBytes <= 0 {
		c.BufferBytes = 2 << 20
	}
	if c.Overload.Enabled {
		c.Overload.fill()
	}
}

// Host-side copy bandwidth for staging responses into registered buffers.
const memcpyBps = 8_000_000_000

func memcpyTime(size int) sim.Time {
	if size <= 0 {
		return 0
	}
	return sim.Time(float64(size) / float64(memcpyBps) * float64(sim.Second))
}

// Server is one Memcached server instance.
type Server struct {
	env *sim.Env
	st  *store.Store
	cfg Config

	// RDMA mode
	dev       *verbs.Device
	recvCQ    *verbs.CQ
	sendCQ    *verbs.CQ
	connByQPN map[int]*rdmaConn

	// IPoIB mode
	host *verbs.Host

	// Async pipeline
	slots *sim.Resource
	reqQ  *sim.Queue[task]

	// repl, when attached, replaces the plain storage phase with the
	// replicated one: admitted writes are forwarded to the key's peer
	// replicas before any ack or response.
	repl *replication.Replicator

	// bypass, when attached, is the published read-side directory clients
	// resolve GETs against with one-sided READs. The server's only duties
	// are answering OpDirQuery bootstraps and keeping the directory
	// coherent across crash/restart; steady-state reads cost it nothing.
	bypass *store.Directory
	// onColdRecovery hooks run after a cold-restart recovery scan rebuilds
	// the store, before requests are admitted.
	onColdRecovery []func(keys []string)

	started bool
	down    bool
	// killed is set by Kill (whole-node loss): only a cold restart may
	// follow, since RAM state is gone.
	killed bool
	// recovering is set from a cold restart until the SSD recovery scan
	// completes; every request in the window is answered StatusRecovering.
	recovering bool
	// gen counts crashes: work buffered or suspended across a crash carries
	// a stale gen and is discarded instead of answered after restart.
	gen uint64

	// stallWindows are scheduled fail-slow intervals for the storage pool
	// (AddWorkerStall): each task popped during a window pays a fixed extra
	// stall before its storage phase. This is the CPU/runtime-side gray
	// failure — the node answers everything, just late.
	stallWindows []stallWindow

	// Stats
	Requests int64
	Acks     int64
	// Batches counts coalesced BatchFrames received; their member ops are
	// included in Requests.
	Batches int64
	// Discarded counts requests dropped because they arrived (or finished a
	// storage phase) while the server was crashed.
	Discarded int64
	// Rejected counts requests answered StatusRecovering during a cold
	// restart's recovery window.
	Rejected int64
	// ShedSets and ShedGets count requests rejected StatusBusy at
	// admission, by op class; writes are shed first. Their sum is the
	// server's total busy rejections.
	ShedSets int64
	ShedGets int64
	// BufferPeak and QueuePeak are high-water marks of async buffer bytes
	// in use and storage-queue depth, maintained on both the blocking and
	// bounded-admission paths — the overload experiment's evidence that
	// the unprotected queue grows without bound.
	BufferPeak int
	QueuePeak  int
	// Stalled counts storage tasks delayed by an AddWorkerStall window.
	Stalled int64
	// Recovery holds the cold-restart counters ("pages-scanned",
	// "pages-recovered", "pages-discarded", "items-recovered", ...).
	Recovery *metrics.Counters
	// LastRecovery is the most recent cold-restart recovery report;
	// RecoveryTime is its virtual duration.
	LastRecovery hybridslab.RecoveryReport
	RecoveryTime sim.Time
}

type rdmaConn struct {
	qp *verbs.QP
}

// stallWindow is one scheduled storage-pool stall interval.
type stallWindow struct {
	from, to sim.Time
	stall    sim.Time
}

// AddWorkerStall schedules a fail-slow window on the storage pool: every
// task a worker pops in [from, to) pays an extra stall before executing.
// Deterministic and replayable; with no windows the worker loop is
// untouched, keeping unfaulted runs bit-identical.
func (s *Server) AddWorkerStall(from, to sim.Time, stall sim.Time) {
	s.stallWindows = append(s.stallWindows, stallWindow{from: from, to: to, stall: stall})
}

// stallFor returns the worst scheduled stall covering time at.
func (s *Server) stallFor(at sim.Time) sim.Time {
	var d sim.Time
	for _, w := range s.stallWindows {
		if at >= w.from && at < w.to && w.stall > d {
			d = w.stall
		}
	}
	return d
}

type task struct {
	req  *protocol.Request
	conn *rdmaConn
	// batch is set instead of req for a coalesced frame: one storage worker
	// executes the whole batch's storage phases back-to-back.
	batch *protocol.BatchFrame
	// gen is the server generation at buffering time; a worker popping a
	// task from before a crash discards it instead of answering.
	gen uint64
	// fwd/fwds are the replication rounds opened at admission time for the
	// task's write(s); the peer applies overlap the local storage phase.
	fwd  *replication.Forward
	fwds []*replication.Forward
	// ackDeferred marks a requested BufferAck that replication withheld at
	// admission: the worker sends it only once the write is applied AND
	// replicated, so an acked write is durable on every replica.
	ackDeferred bool
}

// NewRDMA creates an RDMA-transport server on node.
func NewRDMA(env *sim.Env, node *simnet.Node, st *store.Store, cfg Config) *Server {
	cfg.fill()
	if cfg.Name == "" {
		cfg.Name = "server:" + node.Name()
	}
	s := &Server{
		env:       env,
		st:        st,
		cfg:       cfg,
		dev:       verbs.OpenDevice(node),
		connByQPN: make(map[int]*rdmaConn),
		Recovery:  metrics.NewCounters(),
	}
	s.recvCQ = s.dev.CreateCQ(0)
	s.sendCQ = s.dev.CreateCQ(0)
	return s
}

// NewIPoIB creates an IPoIB-transport server on node (default Memcached).
func NewIPoIB(env *sim.Env, node *simnet.Node, st *store.Store, cfg Config) *Server {
	cfg.fill()
	if cfg.Name == "" {
		cfg.Name = "server:" + node.Name()
	}
	return &Server{
		env:      env,
		st:       st,
		cfg:      cfg,
		host:     verbs.NewHost(node),
		Recovery: metrics.NewCounters(),
	}
}

// Store returns the server's item store.
func (s *Server) Store() *store.Store { return s.st }

// Config returns the effective configuration.
func (s *Server) Config() Config { return s.cfg }

// Device returns the RDMA device (nil in IPoIB mode).
func (s *Server) Device() *verbs.Device { return s.dev }

// Host returns the IPoIB socket host (nil in RDMA mode).
func (s *Server) Host() *verbs.Host { return s.host }

// RecvDepth returns the per-connection credit count clients must respect.
func (s *Server) RecvDepth() int { return recvDepth }

// Extensions bundles every optional server subsystem behind one attach
// call, so design constructors hand the server a single extension set
// instead of invoking a growing pile of AttachX hooks.
type Extensions struct {
	// Replicator makes the storage phase the replicated one (see
	// AttachReplicator).
	Replicator *replication.Replicator
	// BypassDirectory publishes the store's read side for one-sided-READ
	// GETs (see AttachBypassDirectory).
	BypassDirectory *store.Directory
	// OnColdRecovery runs after a cold-restart recovery scan rebuilds the
	// store, with the recovered key set, before requests are admitted.
	OnColdRecovery func(keys []string)
}

// Attach installs an extension bundle. Call before the simulation runs;
// fields left nil are skipped, and repeated calls accumulate.
func (s *Server) Attach(ext Extensions) {
	if ext.Replicator != nil {
		s.AttachReplicator(ext.Replicator)
	}
	if ext.BypassDirectory != nil {
		s.AttachBypassDirectory(ext.BypassDirectory)
	}
	if ext.OnColdRecovery != nil {
		s.onColdRecovery = append(s.onColdRecovery, ext.OnColdRecovery)
	}
}

// AttachBypassDirectory installs the published read-side directory: the
// store's read view is wired to it, and OpDirQuery bootstraps answer with
// its geometry. Attach before the simulation runs; RDMA servers only.
func (s *Server) AttachBypassDirectory(d *store.Directory) {
	if s.dev == nil {
		panic("server: bypass directory requires the RDMA transport")
	}
	s.bypass = d
	s.st.SetReadView(d)
}

// BypassDirectory returns the attached directory (nil when not attached).
func (s *Server) BypassDirectory() *store.Directory { return s.bypass }

// AttachReplicator installs the server's replicator: the storage phase
// becomes the replicated one, and requested BufferAcks on writes are
// withheld until the replication chain completes. Attach before the
// simulation runs; RDMA servers only.
func (s *Server) AttachReplicator(r *replication.Replicator) {
	if s.dev == nil {
		panic("server: replication requires the RDMA transport")
	}
	s.repl = r
	// A crashed or still-recovering node neither applies nor acks peer
	// frames; silence (not a negative ack) is what lets coordinators
	// distinguish "retry later" from "stale epoch".
	r.SetDown(func() bool { return s.down || s.recovering })
	// Foreground-load signal for the background pacer: consulted only when
	// the replicator's pacer is enabled, so attaching it costs nothing.
	r.SetBusy(s.foregroundBusy)
	// A corrupt local read opens a repair-pull immediately — the key heals
	// from peers even if no client ever retries it.
	s.st.SetCorruptNotify(r.OnCorrupt)
}

// foregroundBusy reports whether the async pipeline currently holds queued
// foreground work: storage tasks waiting beyond the worker pool, or
// buffered bytes above half the shed watermark. The replication pacer
// yields background scrub/migration rounds while this holds — deliberately
// engaging well below the point where admission starts rejecting SETs,
// because once the server sheds foreground work the buffer never rises
// past the shed watermark and a probe at that level would never fire; the
// pacer is the gentle first line of defense, shedding the last resort.
// Sync-pipeline (or not-yet-started) servers report idle — they have no
// queue to protect.
func (s *Server) foregroundBusy() bool {
	if s.slots == nil || s.reqQ == nil {
		return false
	}
	if s.reqQ.Len() >= s.cfg.StorageWorkers {
		return true
	}
	return float64(s.slots.InUse()) > shedSetWatermark/2*float64(s.slots.Total())
}

// Replicator returns the attached replicator (nil when unreplicated).
func (s *Server) Replicator() *replication.Replicator { return s.repl }

// exec runs one buffered request's storage phase, replicated when a
// replicator is attached.
func (s *Server) exec(p *sim.Proc, t task) *protocol.Response {
	if s.repl != nil {
		return s.repl.Execute(p, t.req, t.fwd)
	}
	return degradeCorrupt(s.st.Handle(p, t.req))
}

// execBatch runs a buffered frame's storage phases back-to-back.
func (s *Server) execBatch(p *sim.Proc, t task) []*protocol.Response {
	if s.repl != nil {
		return s.repl.ExecuteBatch(p, t.batch.Reqs, t.fwds)
	}
	resps := s.st.HandleBatch(p, t.batch.Reqs)
	for i, resp := range resps {
		resps[i] = degradeCorrupt(resp)
	}
	return resps
}

// degradeCorrupt converts a StatusCorrupt read into a plain miss: with no
// replicator attached there is nowhere to repair from, and the one thing an
// unreplicated server must still guarantee is that quarantined garbage is
// never served — a miss lets the client re-populate from its backend.
// (Replicated servers intercept the status earlier and repair-pull instead.)
func degradeCorrupt(resp *protocol.Response) *protocol.Response {
	if resp != nil && resp.Status == protocol.StatusCorrupt {
		resp.Status = protocol.StatusNotFound
		resp.Value = nil
	}
	return resp
}

// AcceptQP creates and connects a server-side QP for a client QP, and
// pre-posts the receive pool. Call before Start or during the run.
func (s *Server) AcceptQP(clientQP *verbs.QP) *verbs.QP {
	if s.dev == nil {
		panic("server: AcceptQP on an IPoIB server")
	}
	qp := s.dev.CreateQP(s.sendCQ, s.recvCQ)
	verbs.Connect(clientQP, qp)
	for i := 0; i < recvDepth; i++ {
		qp.PostRecv(verbs.RecvWR{})
	}
	s.connByQPN[qp.QPN()] = &rdmaConn{qp: qp}
	return qp
}

// Start launches the server's processes.
func (s *Server) Start() {
	if s.started {
		panic("server: double Start")
	}
	s.started = true
	if s.cfg.Pipeline == Async {
		s.slots = sim.NewResource(s.env, s.cfg.BufferBytes)
		s.reqQ = sim.NewQueue[task](s.env, 0)
		for i := 0; i < s.cfg.StorageWorkers; i++ {
			s.env.Spawn(fmt.Sprintf("%s/worker%d", s.cfg.Name, i), s.storageWorker)
		}
	}
	if s.dev != nil {
		s.env.Spawn(s.cfg.Name+"/dispatcher", s.rdmaDispatcher)
	} else {
		s.env.Spawn(s.cfg.Name+"/accept", s.ipoibAcceptLoop)
	}
}

// Down reports whether the server is currently crashed.
func (s *Server) Down() bool { return s.down }

// Crash fails the server process: from now until Restart, every request is
// discarded without a response. The fabric and NIC stay up (receives are
// re-posted so retried requests don't overflow the QP), and the store keeps
// its contents — this models a process wedge / fail-stop with warm restart,
// the case clients must survive via deadlines and failover.
//
// Any eviction-coalescing window open at crash time is torn down: its
// deferred SSD writes die with the process, so Restart never resumes a
// half-open batch (the suspended worker's EndEvictionBatch becomes a no-op
// and its finished storage work is discarded by the generation check).
func (s *Server) Crash() {
	s.down = true
	s.gen++
	s.st.Manager().AbortEvictionBatches()
	if s.bypass != nil {
		// The NIC keeps serving one-sided READs of the registered MRs even
		// while the process is dead; quiesce the directory so those READs
		// observe emptiness (⇒ RPC fallback), never values that may not
		// survive the restart.
		s.bypass.Quiesce()
	}
}

// Restart brings a crashed server back warm. Requests arriving from now on
// are served normally against the intact store.
func (s *Server) Restart() {
	if s.killed {
		panic("server: warm Restart after Kill — RAM is gone, use RestartCold")
	}
	s.down = false
	// Warm restart: the store survived, so the directory quiesced at crash
	// time is simply republished.
	s.st.PublishAll()
}

// Kill models whole-node loss, the failure mode replication exists for:
// the process crashes and everything RAM-resident dies with it — the item
// table, pending buffers, open replication forwards, and the epoch records
// proving which recovered values are fresh. With wipeSSD the durable
// extents are discarded too (replacement hardware): a later RestartCold
// then recovers nothing and the node returns empty, to be refilled by
// anti-entropy. Only RestartCold may follow a Kill.
func (s *Server) Kill(wipeSSD bool) {
	s.Crash()
	s.killed = true
	if s.repl != nil {
		s.repl.Wipe()
	}
	if wipeSSD {
		s.st.Manager().WipeSSD()
	}
}

// RestartCold brings a crashed server back after a power cycle: RAM state is
// gone and the store must be rebuilt from the SSD. The recovery scan runs as
// its own process; until it completes, every request is answered
// StatusRecovering so clients fail fast (and guarded ones retry or fail
// over) instead of queueing behind the scan.
func (s *Server) RestartCold() {
	s.down = false
	s.killed = false
	s.recovering = true
	s.env.Spawn(s.cfg.Name+"/recovery", func(p *sim.Proc) {
		t0 := p.Now()
		rep := s.st.RecoverCold(p)
		s.LastRecovery = rep
		s.RecoveryTime = p.Now() - t0
		s.Recovery.Add("recoveries", 1)
		s.Recovery.Add("pages-scanned", rep.PagesScanned)
		s.Recovery.Add("pages-recovered", rep.PagesRecovered)
		s.Recovery.Add("pages-discarded", rep.PagesDiscarded)
		s.Recovery.Add("pages-torn", rep.PagesTorn)
		s.Recovery.Add("pages-uncommitted", rep.PagesUncommitted)
		s.Recovery.Add("items-recovered", rep.ItemsRecovered)
		s.Recovery.Add("items-missing", rep.ItemsMissing)
		if s.repl != nil || len(s.onColdRecovery) > 0 {
			keys := s.st.Keys()
			if s.repl != nil {
				// The SSD resurrected values, but the epoch table proving
				// their freshness died with the node: every recovered key is
				// suspect until a peer replica confirms it.
				s.repl.OnColdRecovery(keys)
			}
			for _, fn := range s.onColdRecovery {
				fn(keys)
			}
		}
		if s.repl == nil {
			// Republish the recovered read side. Under replication the
			// directory instead refills lazily as anti-entropy confirms or
			// rewrites keys — recovered values are suspect until then, and
			// a one-sided READ must never leak a value RPC would withhold.
			s.st.PublishAll()
		}
		s.recovering = false
	})
}

// Recovering reports whether a cold-restart recovery scan is in progress.
func (s *Server) Recovering() bool { return s.recovering }

// ScheduleCrash arranges a crash at from and a restart at to (virtual time).
func (s *Server) ScheduleCrash(from, to sim.Time) {
	if to <= from {
		panic("server: ScheduleCrash window must have to > from")
	}
	s.env.AtFunc(from, s.Crash)
	s.env.AtFunc(to, s.Restart)
}

// rdmaDispatcher drains the shared receive CQ.
func (s *Server) rdmaDispatcher(p *sim.Proc) {
	for {
		c := s.recvCQ.WaitPoll(p)
		conn := s.connByQPN[c.QPN]
		if conn == nil {
			panic(fmt.Sprintf("server: completion for unknown QP %d", c.QPN))
		}
		switch pl := c.Payload.(type) {
		case *protocol.Request:
			s.dispatchOne(p, conn, pl)
		case *protocol.BatchFrame:
			s.dispatchBatch(p, conn, pl)
		default:
			panic("server: non-request payload on receive CQ")
		}
	}
}

// dispatchOne handles a single-op receive.
func (s *Server) dispatchOne(p *sim.Proc, conn *rdmaConn, req *protocol.Request) {
	if s.down {
		// Crashed: swallow the request. Re-post the receive so retried
		// requests don't hit receiver-not-ready, but never respond — the
		// client's credit is stranded until its deadline machinery
		// reclaims it.
		s.Discarded++
		conn.qp.PostRecv(verbs.RecvWR{})
		return
	}
	p.Sleep(parseCost)
	s.Requests++
	if s.recovering {
		// Cold-restart recovery in progress: fail fast with a retryable
		// status instead of queueing the request behind the scan.
		s.Rejected++
		s.respond(p, conn, req, &protocol.Response{
			Op: protocol.OpResponse, ReqID: req.ReqID,
			Status: protocol.StatusRecovering,
		})
		conn.qp.PostRecv(verbs.RecvWR{})
		return
	}
	if req.Op == protocol.OpDirQuery {
		// Bypass bootstrap: answer with the directory geometry inline —
		// this is control-plane work, never queued behind storage. The
		// store's published hot-key set piggybacks on the same payload.
		resp := &protocol.Response{Op: protocol.OpResponse, ReqID: req.ReqID}
		if s.bypass != nil {
			info := s.bypass.Info()
			info.Hot, info.HotVersion = s.st.HotSnapshot()
			if s.repl != nil {
				info.MemberEpoch = s.repl.MembershipEpoch()
			}
			resp.Status = protocol.StatusOK
			resp.Value = &info
			resp.ValueSize = info.WireSize()
		} else {
			resp.Status = protocol.StatusNotFound
		}
		s.respond(p, conn, req, resp)
		conn.qp.PostRecv(verbs.RecvWR{})
		return
	}
	gen0 := s.gen
	if s.cfg.Pipeline == Sync {
		// Storage phase inline; the receive slot is held until the
		// request finishes (the client's credit comes back with the
		// response).
		var resp *protocol.Response
		if s.repl != nil {
			resp = s.repl.Execute(p, req, s.repl.Begin(p, req))
		} else {
			resp = s.st.Handle(p, req)
		}
		if s.down || s.gen != gen0 {
			// Crashed mid-storage-phase (e.g. during a hybrid eviction):
			// the response is lost with the process, even if the server
			// already restarted by the time the storage phase unwound.
			s.Discarded++
			conn.qp.PostRecv(verbs.RecvWR{})
			return
		}
		s.respond(p, conn, req, resp)
		conn.qp.PostRecv(verbs.RecvWR{})
		return
	}
	// Async: communication phase only. Reserve buffer memory for the
	// request (header + any carried value): this is where
	// backpressure forms when storage falls behind. Bounded admission
	// never blocks here: an over-watermark request is shed with
	// StatusBusy before any ack, and the dispatcher keeps serving the
	// classes still under their watermarks.
	size := req.WireSize()
	if s.cfg.Overload.Enabled {
		if s.overLimit(size, isWrite(req.Op)) || !s.slots.TryAcquireN(size) {
			s.shed(p, conn, req)
			conn.qp.PostRecv(verbs.RecvWR{})
			return
		}
	} else {
		s.slots.AcquireN(p, size)
	}
	if u := s.slots.InUse(); u > s.BufferPeak {
		s.BufferPeak = u
	}
	conn.qp.PostRecv(verbs.RecvWR{})
	t := task{req: req, conn: conn, gen: gen0}
	if s.repl != nil {
		// Open the replication round now so peer applies overlap the local
		// slab phase; the early ack for writes moves past the ack wait so
		// "acked" keeps meaning "durable" — now on every replica.
		t.fwd = s.repl.Begin(p, req)
		t.ackDeferred = req.AckWanted && isWrite(req.Op)
	}
	if req.AckWanted && !t.ackDeferred {
		s.sendAck(p, conn, req)
	}
	s.reqQ.Put(p, t)
	if n := s.reqQ.Len(); n > s.QueuePeak {
		s.QueuePeak = n
	}
}

// isWrite reports whether op belongs to the shed-first write class: every
// opcode that mutates the store. GETs are the protected class.
func isWrite(op protocol.Opcode) bool { return op != protocol.OpGet }

// overLimit reports whether admitting size more buffered bytes would take
// the op class past its buffer watermark or storage-queue depth bound.
func (s *Server) overLimit(size int, write bool) bool {
	oc := &s.cfg.Overload
	frac, qhigh := shedGetWatermark, 4*oc.QueueHigh
	if write {
		frac, qhigh = shedSetWatermark, oc.QueueHigh
	}
	if float64(s.slots.InUse()+size) > frac*float64(s.slots.Total()) {
		return true
	}
	return s.reqQ.Len() >= qhigh
}

// shed answers one request StatusBusy with a retry-after hint scaled by
// the storage backlog. The request was never buffered and never acked —
// admission happens strictly before the BufferAck — so an acked bset can
// never be lost to shedding.
func (s *Server) shed(p *sim.Proc, conn *rdmaConn, req *protocol.Request) {
	if isWrite(req.Op) {
		s.ShedSets++
	} else {
		s.ShedGets++
	}
	oc := &s.cfg.Overload
	hint := oc.RetryAfterUnit * sim.Time(s.reqQ.Len()/s.cfg.StorageWorkers+1)
	if hint > maxRetryAfter {
		hint = maxRetryAfter
	}
	s.respond(p, conn, req, &protocol.Response{
		Op: protocol.OpResponse, ReqID: req.ReqID,
		Status:       protocol.StatusBusy,
		RetryAfterUS: uint32(hint / sim.Microsecond),
	})
}

// dispatchBatch unpacks a coalesced frame in one communication phase: one
// parse, one receive-repost, and — on the async pipeline — one buffer
// reservation, one early BufferAck covering every member, and one task so a
// single storage worker runs the batch's storage phases back-to-back.
func (s *Server) dispatchBatch(p *sim.Proc, conn *rdmaConn, frame *protocol.BatchFrame) {
	n := len(frame.Reqs)
	if s.down {
		s.Discarded += int64(n)
		conn.qp.PostRecv(verbs.RecvWR{})
		return
	}
	p.Sleep(parseCost + sim.Time(n-1)*batchOpCost)
	s.Requests += int64(n)
	s.Batches++
	if s.recovering {
		// Reject every member fast; one receive-repost for the frame.
		s.Rejected += int64(n)
		for _, req := range frame.Reqs {
			s.respond(p, conn, req, &protocol.Response{
				Op: protocol.OpResponse, ReqID: req.ReqID,
				Status: protocol.StatusRecovering,
			})
		}
		conn.qp.PostRecv(verbs.RecvWR{})
		return
	}
	gen0 := s.gen
	if s.cfg.Pipeline == Sync {
		var resps []*protocol.Response
		if s.repl != nil {
			resps = s.repl.ExecuteBatch(p, frame.Reqs, s.beginAll(p, frame.Reqs))
		} else {
			resps = s.st.HandleBatch(p, frame.Reqs)
		}
		if s.down || s.gen != gen0 {
			s.Discarded += int64(n)
			conn.qp.PostRecv(verbs.RecvWR{})
			return
		}
		for i, resp := range resps {
			s.respond(p, conn, frame.Reqs[i], resp)
		}
		conn.qp.PostRecv(verbs.RecvWR{})
		return
	}
	// Async: reserve buffer memory for the whole frame at once, give the
	// client its credit back with a single receive-repost, and ack the
	// batch as a unit. Under bounded admission the frame is one unit: it
	// is admitted under the write watermark if any member mutates, or
	// shed whole (one busy response per member, one receive-repost).
	size := frame.WireSize()
	if s.cfg.Overload.Enabled {
		write := false
		for _, req := range frame.Reqs {
			if isWrite(req.Op) {
				write = true
				break
			}
		}
		if s.overLimit(size, write) || !s.slots.TryAcquireN(size) {
			for _, req := range frame.Reqs {
				s.shed(p, conn, req)
			}
			conn.qp.PostRecv(verbs.RecvWR{})
			return
		}
	} else {
		s.slots.AcquireN(p, size)
	}
	if u := s.slots.InUse(); u > s.BufferPeak {
		s.BufferPeak = u
	}
	conn.qp.PostRecv(verbs.RecvWR{})
	t := task{batch: frame, conn: conn, gen: gen0}
	if s.repl != nil {
		t.fwds = s.beginAll(p, frame.Reqs)
		for _, req := range frame.Reqs {
			if isWrite(req.Op) {
				// The batch-wide ack covers every member, so it moves past
				// the whole batch's replication rounds if any member writes.
				t.ackDeferred = frame.AckWanted
				break
			}
		}
	}
	if frame.AckWanted && !t.ackDeferred {
		s.sendBatchAck(p, conn, frame)
	}
	s.reqQ.Put(p, t)
	if n := s.reqQ.Len(); n > s.QueuePeak {
		s.QueuePeak = n
	}
}

// beginAll opens the replication rounds for a batch's members back-to-back
// so all their forwards are in flight before any storage phase starts.
func (s *Server) beginAll(p *sim.Proc, reqs []*protocol.Request) []*replication.Forward {
	fwds := make([]*replication.Forward, len(reqs))
	for i, req := range reqs {
		fwds[i] = s.repl.Begin(p, req)
	}
	return fwds
}

// storageWorker executes buffered requests and responds.
func (s *Server) storageWorker(p *sim.Proc) {
	for {
		t, ok := s.reqQ.Get(p)
		if !ok {
			return
		}
		if len(s.stallWindows) > 0 {
			if d := s.stallFor(p.Now()); d > 0 {
				s.Stalled++
				p.Sleep(d)
			}
		}
		if t.batch != nil {
			s.workBatch(p, t)
			continue
		}
		if s.down || t.gen != s.gen {
			// Crashed, or a task buffered before a crash: the buffered
			// request died with the process.
			s.Discarded++
			s.slots.ReleaseN(t.req.WireSize())
			continue
		}
		resp := s.exec(p, t)
		if s.down || t.gen != s.gen {
			// Crashed mid-storage-phase: drop the finished work.
			s.Discarded++
			s.slots.ReleaseN(t.req.WireSize())
			continue
		}
		if t.ackDeferred && resp.Status != protocol.StatusNoReplica {
			// The write is applied and every replica acked: only now is the
			// early ack honest.
			s.sendAck(p, t.conn, t.req)
		}
		s.respond(p, t.conn, t.req, resp)
		s.slots.ReleaseN(t.req.WireSize())
	}
}

// workBatch runs a buffered frame's storage phases back-to-back on one
// worker — merging the evictions its Sets trigger into larger sequential
// SSD flushes — then scatters one response per member op.
func (s *Server) workBatch(p *sim.Proc, t task) {
	size := t.batch.WireSize()
	n := int64(len(t.batch.Reqs))
	if s.down || t.gen != s.gen {
		s.Discarded += n
		s.slots.ReleaseN(size)
		return
	}
	resps := s.execBatch(p, t)
	if s.down || t.gen != s.gen {
		// Crashed mid-storage-phase: drop the finished work.
		s.Discarded += n
		s.slots.ReleaseN(size)
		return
	}
	if t.ackDeferred {
		// Every member's replication round has completed (member failures
		// carry their own NoReplica status); the batch-wide ack is honest.
		s.sendBatchAck(p, t.conn, t.batch)
	}
	for i, resp := range resps {
		s.respond(p, t.conn, t.batch.Reqs[i], resp)
	}
	s.slots.ReleaseN(size)
}

// respond RDMA-WRITEs the response into the client's registered response
// region, with the request id as immediate data. The time to stage the
// value into a registered bounce buffer plus the doorbell is the server's
// "Server Response" stage.
func (s *Server) respond(p *sim.Proc, conn *rdmaConn, req *protocol.Request, resp *protocol.Response) {
	t0 := p.Now()
	p.Sleep(memcpyTime(resp.ValueSize))
	conn.qp.PostSend(p, verbs.SendWR{
		WRID:     resp.ReqID,
		Op:       verbs.OpWriteImm,
		Size:     resp.WireSize(),
		Payload:  resp,
		RemoteMR: req.RespMR,
		Imm:      resp.ReqID,
	})
	s.st.Prof.Add(metrics.StageResponse, p.Now()-t0)
}

// sendAck notifies the client that its request is buffered server-side and
// its buffers are reusable (async design; carries a flow-control credit).
func (s *Server) sendAck(p *sim.Proc, conn *rdmaConn, req *protocol.Request) {
	ack := &protocol.Response{Op: protocol.OpBufferAck, ReqID: req.ReqID, Status: protocol.StatusOK}
	conn.qp.PostSend(p, verbs.SendWR{
		WRID:     req.ReqID,
		Op:       verbs.OpWriteImm,
		Size:     ack.WireSize(),
		Payload:  ack,
		RemoteMR: req.RespMR,
		Imm:      req.ReqID,
	})
	s.Acks++
}

// sendBatchAck acknowledges a whole coalesced frame with one BufferAck
// carrying the batch id; the client fans it out to every member and takes
// its single flow-control credit back.
func (s *Server) sendBatchAck(p *sim.Proc, conn *rdmaConn, frame *protocol.BatchFrame) {
	ack := &protocol.Response{Op: protocol.OpBufferAck, ReqID: frame.BatchID, Status: protocol.StatusOK}
	conn.qp.PostSend(p, verbs.SendWR{
		WRID:     frame.BatchID,
		Op:       verbs.OpWriteImm,
		Size:     ack.WireSize(),
		Payload:  ack,
		RemoteMR: frame.Reqs[0].RespMR,
		Imm:      frame.BatchID,
	})
	s.Acks++
}

// ipoibAcceptLoop accepts stream connections and spawns a handler per
// connection (default Memcached's thread-per-connection event handling,
// always the sync design).
func (s *Server) ipoibAcceptLoop(p *sim.Proc) {
	n := 0
	for {
		stream, ok := s.host.Accept(p)
		if !ok {
			return
		}
		n++
		s.env.Spawn(fmt.Sprintf("%s/conn%d", s.cfg.Name, n), func(hp *sim.Proc) {
			s.ipoibHandler(hp, stream)
		})
	}
}

func (s *Server) ipoibHandler(p *sim.Proc, stream *verbs.Stream) {
	for {
		msg, ok := stream.Recv(p)
		if !ok {
			return
		}
		switch pl := msg.Payload.(type) {
		case *protocol.Request:
			if s.down {
				s.Discarded++
				continue
			}
			p.Sleep(parseCost)
			s.Requests++
			if s.recovering {
				s.Rejected++
				s.ipoibRespond(p, stream, &protocol.Response{
					Op: protocol.OpResponse, ReqID: pl.ReqID,
					Status: protocol.StatusRecovering,
				})
				continue
			}
			gen0 := s.gen
			resp := s.st.Handle(p, pl)
			if s.down || s.gen != gen0 {
				s.Discarded++
				continue
			}
			s.ipoibRespond(p, stream, resp)
		case *protocol.BatchFrame:
			// One vectored frame (libmemcached buffering mode): unpack in
			// one parse pass, run the storage phases back-to-back, answer
			// each op in order.
			n := int64(len(pl.Reqs))
			if s.down {
				s.Discarded += n
				continue
			}
			p.Sleep(parseCost + sim.Time(n-1)*batchOpCost)
			s.Requests += n
			s.Batches++
			if s.recovering {
				s.Rejected += n
				for _, req := range pl.Reqs {
					s.ipoibRespond(p, stream, &protocol.Response{
						Op: protocol.OpResponse, ReqID: req.ReqID,
						Status: protocol.StatusRecovering,
					})
				}
				continue
			}
			gen0 := s.gen
			resps := s.st.HandleBatch(p, pl.Reqs)
			if s.down || s.gen != gen0 {
				s.Discarded += n
				continue
			}
			for _, resp := range resps {
				s.ipoibRespond(p, stream, resp)
			}
		default:
			panic("server: non-request payload on IPoIB stream")
		}
	}
}

func (s *Server) ipoibRespond(p *sim.Proc, stream *verbs.Stream, resp *protocol.Response) {
	t0 := p.Now()
	p.Sleep(memcpyTime(resp.ValueSize))
	stream.Send(p, resp.WireSize(), resp)
	s.st.Prof.Add(metrics.StageResponse, p.Now()-t0)
}
