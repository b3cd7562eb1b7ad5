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
	dev     *verbs.Device
	recvCQ  *verbs.CQ
	sendCQ  *verbs.CQ
	qpByQPN map[int]*verbs.QP

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

// task is one receive on its way from the communication phase to the
// response: a bare request or a coalesced frame, answered over a QP or over a
// socket stream. A bare request is a frame of one — every step below runs
// once per member — that skips what only a real frame amortizes (the batch
// counter, the eviction-coalescing window, the heap-allocated views).
type task struct {
	// frame is the coalesced frame; nil for a bare request, which sits in one.
	frame *protocol.BatchFrame
	one   [1]*protocol.Request
	// qp or stream is where the answers go.
	qp     *verbs.QP
	stream *verbs.Stream
	// gen is the server generation at receive time; a task from before a
	// crash is discarded instead of answered.
	gen uint64
	// held is the buffer memory reserved for the task on the async pipeline.
	// Zero on the inline paths, where a QP task holds its receive slot
	// instead until it finishes.
	held int
	// rounds are the replication rounds opened at admission time, one per
	// member (nil for reads and RMW ops); the peer applies overlap the local
	// storage phase. A bare request's sits in round.
	rounds []*replication.Forward
	round  [1]*replication.Forward
	// ackDeferred marks a requested BufferAck that replication withheld at
	// admission: finish sends it only once every write is applied AND
	// replicated, so an acked write is durable on every replica.
	ackDeferred bool
}

// members returns the task's requests, in wire order.
func (t *task) members() []*protocol.Request {
	if t.frame != nil {
		return t.frame.Reqs
	}
	return t.one[:]
}

// forwards returns the members' replication rounds, in member order.
func (t *task) forwards() []*replication.Forward {
	if t.frame != nil {
		return t.rounds
	}
	return t.round[:]
}

// repost returns the receive slot (and with it the client's flow-control
// credit) to the QP the task arrived on; a socket has none.
func (t *task) repost() {
	if t.qp != nil {
		t.qp.PostRecv(verbs.RecvWR{})
	}
}

// NewRDMA creates an RDMA-transport server on node.
func NewRDMA(env *sim.Env, node *simnet.Node, st *store.Store, cfg Config) *Server {
	cfg.fill()
	if cfg.Name == "" {
		cfg.Name = "server:" + node.Name()
	}
	s := &Server{
		env:      env,
		st:       st,
		cfg:      cfg,
		dev:      verbs.OpenDevice(node),
		qpByQPN:  make(map[int]*verbs.QP),
		Recovery: metrics.NewCounters(),
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

// Device returns the RDMA device (nil in IPoIB mode).
func (s *Server) Device() *verbs.Device { return s.dev }

// Host returns the IPoIB socket host (nil in RDMA mode).
func (s *Server) Host() *verbs.Host { return s.host }

// RecvDepth returns the per-connection credit count clients must respect.
func (s *Server) RecvDepth() int { return recvDepth }

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
	s.qpByQPN[qp.QPN()] = qp
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
		if s.repl != nil {
			// The SSD resurrected values, but the epoch table proving
			// their freshness died with the node: every recovered key is
			// suspect until a peer replica confirms it.
			s.repl.OnColdRecovery(s.st.Keys())
		} else {
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
		qp := s.qpByQPN[c.QPN]
		if qp == nil {
			panic(fmt.Sprintf("server: completion for unknown QP %d", c.QPN))
		}
		s.receive(p, c.Payload, task{qp: qp})
	}
}

// receive is the communication phase of Figure 3 for one arrival — a bare
// request or a coalesced frame, off a QP or a socket (t names which). A frame
// is one unit throughout: one parse pass, one receive-repost, and on the async
// pipeline one buffer reservation, one BufferAck covering every member and
// one task, so a single storage worker runs its storage phases back-to-back.
func (s *Server) receive(p *sim.Proc, payload any, t task) {
	switch pl := payload.(type) {
	case *protocol.Request:
		t.one[0] = pl
	case *protocol.BatchFrame:
		t.frame = pl
	default:
		panic("server: non-request payload received")
	}
	reqs := t.members()
	n := int64(len(reqs))
	if s.down {
		// Crashed: swallow the arrival. Re-post the receive so retried
		// requests don't hit receiver-not-ready, but never respond — the
		// client's credit is stranded until its deadline machinery
		// reclaims it.
		s.Discarded += n
		t.repost()
		return
	}
	p.Sleep(parseCost + sim.Time(n-1)*batchOpCost)
	s.Requests += n
	if t.frame != nil {
		s.Batches++
	}
	if s.recovering {
		// Cold-restart recovery in progress: fail every member fast with a
		// retryable status instead of queueing it behind the scan.
		s.Rejected += n
		for _, req := range reqs {
			s.respond(p, &t, req, &protocol.Response{
				Op: protocol.OpResponse, ReqID: req.ReqID,
				Status: protocol.StatusRecovering,
			})
		}
		t.repost()
		return
	}
	if t.frame == nil && reqs[0].Op == protocol.OpDirQuery {
		// Bypass bootstrap: control-plane work, answered inline and never
		// queued behind storage.
		s.respond(p, &t, reqs[0], s.dirQuery(reqs[0]))
		t.repost()
		return
	}
	t.gen = s.gen
	if s.cfg.Pipeline == Sync || t.stream != nil {
		// Storage phase inline (every socket connection is its own sync
		// handler); a QP's receive slot is held until the task finishes, so
		// the client's credit comes back with the response.
		s.openRounds(p, &t)
		s.finish(p, &t)
		return
	}
	// Async: communication phase only. Reserve buffer memory for the
	// arrival (headers + any carried values): this is where backpressure
	// forms when storage falls behind. Bounded admission never blocks here:
	// an over-watermark arrival is shed with StatusBusy — whole, under the
	// write watermark if any member mutates — before any ack, and the
	// dispatcher keeps serving the classes still under their watermarks.
	write := false
	for _, req := range reqs {
		write = write || isWrite(req.Op)
	}
	if t.frame != nil {
		t.held = t.frame.WireSize()
	} else {
		t.held = reqs[0].WireSize()
	}
	if s.cfg.Overload.Enabled {
		if s.overLimit(t.held, write) || !s.slots.TryAcquireN(t.held) {
			for _, req := range reqs {
				s.shed(p, &t, req)
			}
			t.repost()
			return
		}
	} else {
		s.slots.AcquireN(p, t.held)
	}
	if u := s.slots.InUse(); u > s.BufferPeak {
		s.BufferPeak = u
	}
	t.repost()
	// Open the replication rounds now so peer applies overlap the local slab
	// phase. The early ack covers every member, so if any of them writes it
	// moves past the whole task's rounds: "acked" keeps meaning "durable" —
	// now on every replica.
	s.openRounds(p, &t)
	wanted := reqs[0].AckWanted
	if t.frame != nil {
		wanted = t.frame.AckWanted
	}
	t.ackDeferred = wanted && write && s.repl != nil
	if wanted && !t.ackDeferred {
		s.sendAck(p, &t)
	}
	s.reqQ.Put(p, t)
	if n := s.reqQ.Len(); n > s.QueuePeak {
		s.QueuePeak = n
	}
}

// dirQuery answers a bypass bootstrap with the directory geometry; the
// store's published hot-key set piggybacks on the same payload.
func (s *Server) dirQuery(req *protocol.Request) *protocol.Response {
	resp := &protocol.Response{Op: protocol.OpResponse, ReqID: req.ReqID, Status: protocol.StatusNotFound}
	if s.bypass != nil {
		info := s.bypass.Info()
		info.Hot, info.HotVersion = s.st.HotSnapshot()
		if s.repl != nil {
			info.MemberEpoch = s.repl.MembershipEpoch()
		}
		resp.Status = protocol.StatusOK
		resp.Value = &info
		resp.ValueSize = info.WireSize()
	}
	return resp
}

// openRounds opens the replication round of every member back-to-back, so
// all the forwards are in flight before any storage phase starts.
func (s *Server) openRounds(p *sim.Proc, t *task) {
	if s.repl == nil {
		return
	}
	if t.frame != nil {
		t.rounds = make([]*replication.Forward, len(t.frame.Reqs))
	}
	rounds := t.forwards()
	for i, req := range t.members() {
		rounds[i] = s.repl.Begin(p, req)
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
func (s *Server) shed(p *sim.Proc, t *task, req *protocol.Request) {
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
	s.respond(p, t, req, &protocol.Response{
		Op: protocol.OpResponse, ReqID: req.ReqID,
		Status:       protocol.StatusBusy,
		RetryAfterUS: uint32(hint / sim.Microsecond),
	})
}

// storageWorker drains the async buffer: one task, one storage phase.
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
		s.finish(p, &t)
	}
}

// finish runs an admitted task's storage phase and answers it — inline on
// the dispatcher or socket handler, or on a storage worker. The rules every
// path shares live here, once:
//
//   - a task from before a crash, or whose storage phase a crash interrupted
//     (e.g. during a hybrid eviction), is discarded: its response is lost with
//     the process even if the server already restarted by the time the storage
//     phase unwound;
//   - a deferred BufferAck goes out only when every member's write is applied
//     and replicated — a member answering StatusNoReplica withholds it, so
//     the client keeps its right to retransmit the whole task;
//   - every member gets exactly one response, and whatever the task held
//     (buffer bytes, or the receive slot) is released on every way out.
func (s *Server) finish(p *sim.Proc, t *task) {
	reqs := t.members()
	var one [1]*protocol.Response
	resps := one[:]
	if t.frame != nil {
		resps = make([]*protocol.Response, len(reqs))
	}
	dead := s.down || t.gen != s.gen
	if !dead {
		s.storagePhase(p, t, resps)
		dead = s.down || t.gen != s.gen
	}
	if dead {
		s.Discarded += int64(len(reqs))
		s.release(t)
		return
	}
	ack := t.ackDeferred
	for _, resp := range resps {
		ack = ack && resp.Status != protocol.StatusNoReplica
	}
	if ack {
		s.sendAck(p, t)
	}
	for i, resp := range resps {
		s.respond(p, t, reqs[i], resp)
	}
	s.release(t)
}

// storagePhase executes every member's storage phase — replicated when a
// replicator is attached — and fills resps in member order. The server is
// what knows a frame is a unit, so it owns the eviction-coalescing window:
// a frame's members apply back-to-back inside one, and the slab evictions
// its Sets trigger merge into fewer, larger sequential SSD flushes instead
// of one small write per allocating Set. A bare request lands its eviction
// itself; the window closes before any replication wait.
func (s *Server) storagePhase(p *sim.Proc, t *task, resps []*protocol.Response) {
	reqs, rounds := t.members(), t.forwards()
	if t.frame != nil {
		s.st.Manager().BeginEvictionBatch(p)
	}
	for i, req := range reqs {
		if s.repl != nil {
			resps[i] = s.repl.Apply(p, req, rounds[i])
		} else {
			resps[i] = degradeCorrupt(s.st.Handle(p, req))
		}
	}
	if t.frame != nil {
		s.st.Manager().EndEvictionBatch(p)
	}
	if s.repl != nil {
		for i, resp := range resps {
			s.repl.Finish(p, resp, rounds[i])
		}
	}
}

// release returns what the task held through its storage phase: its buffer
// reservation on the async pipeline, its receive slot on the inline one.
func (s *Server) release(t *task) {
	if t.held > 0 {
		s.slots.ReleaseN(t.held)
	} else {
		t.repost()
	}
}

// respond delivers one response: over a QP, an RDMA WRITE into the client's
// registered response region with the request id as immediate data; over a
// socket, a stream send. The time to stage the value into a registered
// bounce buffer plus the doorbell is the server's "Server Response" stage.
func (s *Server) respond(p *sim.Proc, t *task, req *protocol.Request, resp *protocol.Response) {
	t0 := p.Now()
	p.Sleep(memcpyTime(resp.ValueSize))
	if t.stream != nil {
		t.stream.Send(p, resp.WireSize(), resp)
	} else {
		t.qp.PostSend(p, verbs.SendWR{
			WRID:     resp.ReqID,
			Op:       verbs.OpWriteImm,
			Size:     resp.WireSize(),
			Payload:  resp,
			RemoteMR: req.RespMR,
			Imm:      resp.ReqID,
		})
	}
	s.st.Prof.Add(metrics.StageResponse, p.Now()-t0)
}

// sendAck notifies the client that its task is buffered server-side and its
// buffers are reusable (async design; carries a flow-control credit). A
// frame gets one BufferAck carrying the batch id: the client fans it out to
// every member and takes its single credit back.
func (s *Server) sendAck(p *sim.Proc, t *task) {
	first := t.members()[0]
	id := first.ReqID
	if t.frame != nil {
		id = t.frame.BatchID
	}
	ack := &protocol.Response{Op: protocol.OpBufferAck, ReqID: id, Status: protocol.StatusOK}
	t.qp.PostSend(p, verbs.SendWR{
		WRID:     id,
		Op:       verbs.OpWriteImm,
		Size:     ack.WireSize(),
		Payload:  ack,
		RemoteMR: first.RespMR,
		Imm:      id,
	})
	s.Acks++
}

// ipoibAcceptLoop accepts stream connections and spawns a handler per
// connection (default Memcached's thread-per-connection event handling,
// always the sync design). A frame on a stream is libmemcached's buffering
// mode: one vectored send, answered one response per op, in order.
func (s *Server) ipoibAcceptLoop(p *sim.Proc) {
	n := 0
	for {
		stream, ok := s.host.Accept(p)
		if !ok {
			return
		}
		n++
		s.env.Spawn(fmt.Sprintf("%s/conn%d", s.cfg.Name, n), func(hp *sim.Proc) {
			for {
				msg, ok := stream.Recv(hp)
				if !ok {
					return
				}
				s.receive(hp, msg.Payload, task{stream: stream})
			}
		})
	}
}
