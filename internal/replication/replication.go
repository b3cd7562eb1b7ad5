package replication

import (
	"cmp"
	"fmt"
	"slices"

	"hybridkv/internal/metrics"
	"hybridkv/internal/pool"
	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
	"hybridkv/internal/store"
	"hybridkv/internal/verbs"
)

// Replication protocol overview
//
// Every server hosts a Replicator sharing the server's verbs Device, so
// replication frames traverse the same simulated fabric as client traffic
// and are subject to the same fault injection (drops, duplicates, delay
// spikes, link-down windows, asymmetric partitions). The protocol is four
// rules, each written once (DESIGN.md §10 tabulates who calls which):
//
// mint. The coordinator (whichever server admitted the request — the primary
// in the common case, a backup or even a non-replica after client failover)
// assigns the write a version epoch and forwards the post-image to every
// other replica BEFORE its own apply and the acknowledgement, overlapping the
// peers' applies with its slab phase. Epochs are per-key and totally ordered
// across coordinators: the high 56 bits count coordination rounds, the low
// byte is the coordinator's server id, so two coordinators never mint the
// same epoch and last-write-wins resolution is deterministic; one
// coordinator never mints the same epoch twice either, however many rounds
// of the key it has open. The response (and the buffered early-ack, when
// requested) is withheld until every replica acknowledged, so a completed
// write is durable on R nodes: the invariant that lets the history checker
// demand "no acked write lost" across whole-node kills.
//
// install. A version reaches a store one way: the rule admitting it — the
// coordinator's "still above the record", a frame's judge — asked before the
// store call and again by the store at the instant of the swap, then landed:
// record, digests, scrubber, waiters, all in that instant. A replica holding
// a newer epoch rejects a forward, naming it; the coordinator re-coordinates
// above it (an epoch-conflict) unless the newer write has reached its own
// store too, in which case the older one completes as overwritten.
//
// pull. Any replica may serve a GET, and completed writes are on all of
// them. The dangerous window is a cold restart after a whole-node kill: the
// SSD resurrects values whose RAM epoch table died with the node. Recovered
// keys are *suspect*, and a suspect key is confirmed against its peers — one
// pull per key, shared by its readers, a corrupt read's repair and a
// migration's double-read — before it is served. Unconfirmable in time, the
// answer is a miss (stale-reads-prevented), never a superseded value.
//
// reconcile. A scrubber exchanges bucketed digests of (epoch, content sum)
// with each peer, and every eighth served GET probes them; either way one
// key is settled against what the peer holds — pull what is fresher there,
// push what is fresher here — so replicas reconverge after partitions heal
// even for keys no client touches again.

// Config parameterizes one server's replicator.
type Config struct {
	// ID is the server id (the client ring's connection index).
	ID int
	// NoScrub disables the anti-entropy scrubber entirely (the bitrot
	// experiment's verify-without-scrub cells). False: digests are exchanged
	// every scrubInterval.
	NoScrub bool
	// Pacer throttles background traffic behind a token bucket that yields
	// to the host server's foreground load: every anti-entropy digest round
	// and every migration pull round first takes a token; tokens refill one
	// per paceRefillEvery up to paceBurst. A round that finds the bucket
	// empty — or the host server's foreground-busy probe (SetBusy) asserted
	// — is deferred, never dropped: it sleeps a refill interval and retries,
	// so convergence and rebalance finalization are delayed but never lost.
	// paceMaxDefer bounds how long the busy probe alone can hold a round
	// back, so a permanently-loaded server still scrubs and migrates. False:
	// background rounds run unpaced.
	Pacer bool
}

// The protocol's fixed parameters.
const (
	// readRepairEvery probes the peer replicas for epoch divergence on
	// every Nth served GET hit.
	readRepairEvery = 8
	// scrubBuckets is the digest width: keys fold into this many buckets.
	scrubBuckets = 32
	// scrubInterval is the anti-entropy digest exchange period.
	scrubInterval = 2 * sim.Millisecond
	// ackTimeout bounds one wait-for-acks round of a write forward; unacked
	// peers are re-sent the frame after each round.
	ackTimeout = 300 * sim.Microsecond
	// ackRetries is the number of resend rounds before the coordinator
	// gives up and fails the write with StatusNoReplica.
	ackRetries = 3
	// applyPool is how many processes apply coordinators' forwards, off the
	// engine: the server's default storage pool.
	applyPool = 4
	// pullTimeout bounds one wait on a key's pull.
	pullTimeout = 300 * sim.Microsecond
	// The pacer's bucket: its capacity in rounds, the per-token refill
	// interval, and the cap on busy-probe deferral of a single round.
	paceBurst       = 4
	paceRefillEvery = 200 * sim.Microsecond
	paceMaxDefer    = 5 * sim.Millisecond
)

// recvDepth is the receive-WR pool pre-posted per peer QP. The engine
// re-posts after every completion and never waits on anything else, so the
// pool only bounds the frames of one burst.
const recvDepth = 4096

// maxCoordRounds bounds epoch-conflict re-coordination attempts per write.
const maxCoordRounds = 3

// keyState is the RAM-resident epoch record for one key. It dies with the
// node on a whole-node kill — which is exactly why cold-recovered keys come
// back suspect.
type keyState struct {
	epoch   uint64
	suspect bool // cold-recovered or corrupt-read, unconfirmed by any peer
	// sum is the content checksum of the value applied at epoch, folded
	// into the scrub digest so two replicas at the same epoch holding
	// different bytes (silent corruption) still diverge and get repaired.
	sum uint64
	// minted is the highest epoch this server handed out for the key as a
	// coordinator (mint); the rounds above epoch are still on their way here.
	minted uint64
	// gone marks a record dropped from the key table. A proc that fetched it
	// before a blocking call may still write to it; it is in no digest.
	// dropState and Wipe are the only removals and both set it, so a record
	// that is not gone is its key's table entry: a caller holding one across
	// a suspension asks gone, not the table, whether it is still the key's.
	gone bool

	// Open synchronous pull, shared by concurrent readers of the key.
	pull     *sim.Event
	pullFrom map[int]bool // peers yet to answer; data or all-miss fires the event
}

// maxRoundPeers bounds the peers of one key: its replica set minus self,
// which during a migration is the union of two rings' sets. New rejects a
// membership factor that could exceed it.
const maxRoundPeers = 16

// peerSet is a key's replica set minus self, ascending (every send iterates
// it, so the order is part of the run's determinism), held by value.
type peerSet struct {
	n   int
	ids [maxRoundPeers]int32
}

// add inserts id in order.
func (ps *peerSet) add(id int) {
	if ps.n == maxRoundPeers {
		panic("replication: replica set exceeds maxRoundPeers")
	}
	i := ps.n
	for ; i > 0 && ps.ids[i-1] > int32(id); i-- {
		ps.ids[i] = ps.ids[i-1]
	}
	ps.ids[i] = int32(id)
	ps.n++
}

// index returns id's position, or -1.
func (ps *peerSet) index(id int) int {
	for i := 0; i < ps.n; i++ {
		if ps.ids[i] == int32(id) {
			return i
		}
	}
	return -1
}

// Forward is one write's replication round, opened at admission time so the
// peer forwards overlap the coordinator's local storage phase. The peers it
// waits for and the event it waits on are inside it; every send of its write
// is a frame of its own, so nothing in flight points into it.
//
// It comes off the replicator's free list (open) with one hold, the
// coordinating request's proc's, and goes back when closeRound ends the round:
// at the end of Finish or of executeRMW's round, or through Discard for a task
// a crash discarded. closeRound first takes it out of r.fwds, the only other
// place that names it (DESIGN §16).
type Forward struct {
	pool.Holds
	id  uint64
	key protocol.Key
	version

	peers    peerSet
	waiting  uint32    // bit i: peers.ids[i] still owes an ack
	proxy    bool      // coordinator is not in the replica set: no local apply
	conflict uint64    // highest epoch seen in stale-reject acks
	done     sim.Event // fired when waiting drains
}

// open (re)arms the round: every peer owes an ack.
func (fwd *Forward) open(peers peerSet) {
	fwd.peers = peers
	fwd.waiting = 1<<peers.n - 1
	fwd.done.Init()
	if fwd.waiting == 0 {
		fwd.done.Fire()
	}
}

type peerLink struct {
	qp *verbs.QP
	// digest is the maintained scrub digest of the keys shared with this
	// peer (see Replicator.digest); nil until first used.
	digest []uint64
}

// Replicator is one server's replication engine.
type Replicator struct {
	env  *sim.Env
	cfg  Config
	st   *store.Store
	dev  *verbs.Device
	down func() bool // host server crashed or recovering: drop frames
	busy func() bool // host server has queued foreground work: pacer yields

	// Token-bucket state for the background-traffic pacer (Config.Pacer).
	paceInit   bool
	paceTokens int
	paceLast   sim.Time

	sendCQ  *verbs.CQ
	recvCQ  *verbs.CQ
	applyQ  *sim.Queue[queued] // forwards, for the apply pool
	backQ   *sim.Queue[queued] // every other frame but acks, for the one background process
	peers   map[int]*peerLink
	peerIDs []int // sorted; all sends iterate this for determinism

	// gen counts Wipes: the incarnation of everything below. A proc suspended
	// across a whole-node kill resumes in the next one (install, migrateSegment),
	// and a frame that waited in a lane across one is dropped at dequeue.
	gen       uint64
	keys      keyTable
	digestsAt placement // what the peers' maintained digests were computed under
	fwds      map[uint64]*Forward
	nextID    uint64
	gets      uint64 // served GET hits, drives the read-repair cadence

	// frames and rounds are the free lists this replicator's frames and
	// Forwards come off and go back to (DESIGN §16).
	frames frameList
	rounds pool.List[Forward, *Forward]

	// keyScratch (sortedSharedKeys' list, keysBusy while a caller holds it)
	// serves every digest and diff this replicator handles. One is enough
	// because both handlers run on the one background lane, a frame at a
	// time: a second user while one is suspended would be a second lane.
	keyScratch []protocol.Key
	keysBusy   bool

	// Scrubber arming: every local epoch advance grants the scrubber a
	// fresh burst of digest rounds, after which it blocks until the next
	// kick. A quiescent cluster therefore schedules no timers and the
	// simulation can drain (Env.Run terminates).
	scrubWake *sim.Event
	scrubLeft int

	// Membership: the shared epoch state machine every replica set is read
	// from, the migrator's park event, and the per-segment pull state of the
	// in-flight transition (see migrate.go).
	mem      *Membership
	memWake  *sim.Event
	migPulls [Segments]*segPull // by segment; nil where no pull is open

	// Counters: DESIGN.md §10 says what each one counts.
	Counters metrics.Counters
}

// New creates a replicator for server cfg.ID over its store and device,
// reading every replica set from the shared membership mem — the union of the
// old and the new ring's while a migration is in flight — and waking its
// migrator at every transition mem begins. Interconnect (or Join) must wire
// it into the mesh before the simulation runs.
func New(env *sim.Env, cfg Config, mem *Membership, st *store.Store, dev *verbs.Device) *Replicator {
	if 2*mem.Factor() > maxRoundPeers {
		panic(fmt.Sprintf("replication: factor %d: a migrating key could have more than %d peers", mem.Factor(), maxRoundPeers))
	}
	r := &Replicator{
		env: env, cfg: cfg, mem: mem, st: st, dev: dev,
		peers: make(map[int]*peerLink),
		fwds:  make(map[uint64]*Forward),
	}
	mem.Subscribe(func(epoch uint64, final bool) {
		if !final && r.memWake != nil && !r.memWake.Fired() {
			r.memWake.Fire()
		}
	})
	return r
}

// SetDown installs the host server's liveness probe: while it reports true
// the engine discards incoming frames and the lanes discard what they had
// waiting (a crashed node neither applies nor acks).
func (r *Replicator) SetDown(fn func() bool) { r.down = fn }

// isDown reports whether the host server is crashed.
func (r *Replicator) isDown() bool { return r.down != nil && r.down() }

// SetBusy installs the host server's foreground-load probe. Only consulted
// while the pacer is enabled; attaching it is otherwise free.
func (r *Replicator) SetBusy(fn func() bool) { r.busy = fn }

// pace takes one background-round token, blocking the calling proc while
// the bucket is empty or the host server reports foreground load. Rounds
// are deferred, never dropped: when pacing is disabled this returns
// immediately, and under pacing the caller always proceeds eventually —
// the busy probe can hold a round back at most paceMaxDefer, and the bucket
// refills on a fixed schedule.
func (r *Replicator) pace(p *sim.Proc) {
	if !r.cfg.Pacer {
		return
	}
	if !r.paceInit {
		// First use: start with a full bucket so pacing never delays the
		// initial convergence burst of a fresh cluster.
		r.paceInit = true
		r.paceTokens = paceBurst
		r.paceLast = p.Now()
	}
	deadline := p.Now() + paceMaxDefer
	for {
		now := p.Now()
		if refill := int((now - r.paceLast) / paceRefillEvery); refill > 0 {
			r.paceTokens += refill
			if r.paceTokens > paceBurst {
				r.paceTokens = paceBurst
			}
			r.paceLast += sim.Time(refill) * paceRefillEvery
		}
		if r.paceTokens > 0 {
			isBusy := r.busy != nil && r.busy()
			if !isBusy || now >= deadline {
				r.paceTokens--
				return
			}
		}
		r.Counters.Inc(metrics.CPacerDeferrals)
		p.Sleep(paceRefillEvery)
	}
}

// Interconnect creates the pairwise QPs between every replicator over their
// servers' devices, pre-posts receive pools, and starts each engine and
// scrubber. Call once after all replicators are constructed, before the
// simulation runs. Servers added later join the running mesh via Join.
func Interconnect(repls []*Replicator) {
	for _, r := range repls {
		r.initCQs()
	}
	for i := 0; i < len(repls); i++ {
		for j := i + 1; j < len(repls); j++ {
			link(repls[i], repls[j])
		}
	}
	for _, r := range repls {
		r.start()
	}
}

// Join wires a freshly constructed replicator into a running mesh: pairwise
// QPs to every existing replicator, then engine start for the newcomer.
// The existing engines pick the new peer up on their next send — peer maps
// are re-read on every round, never snapshotted.
func Join(existing []*Replicator, nr *Replicator) {
	nr.initCQs()
	for _, r := range existing {
		link(r, nr)
	}
	nr.start()
}

func (r *Replicator) initCQs() {
	r.sendCQ = r.dev.CreateCQ(0)
	r.recvCQ = r.dev.CreateCQ(0)
}

// link connects one replicator pair: a QP on each side, pre-posted receive
// pools, and refreshed peer id lists.
func link(a, b *Replicator) {
	qa := a.dev.CreateQP(a.sendCQ, a.recvCQ)
	qb := b.dev.CreateQP(b.sendCQ, b.recvCQ)
	verbs.Connect(qa, qb)
	for n := 0; n < recvDepth; n++ {
		qa.PostRecv(verbs.RecvWR{})
		qb.PostRecv(verbs.RecvWR{})
	}
	a.peers[b.cfg.ID] = &peerLink{qp: qa}
	b.peers[a.cfg.ID] = &peerLink{qp: qb}
	a.refreshPeerIDs()
	b.refreshPeerIDs()
}

func (r *Replicator) refreshPeerIDs() { r.peerIDs = sortedKeys(r.peers, nil) }

// sortedKeys lists the keys of m that keep admits (nil: all of them),
// ascending. Map iteration order is random per run, and whatever a replicator
// emits from a map — the pull sources of a segment, its own peer list — must
// come out in the same order every run.
func sortedKeys[K cmp.Ordered, V any](m map[K]V, keep func(K, V) bool) []K {
	var keys []K
	for k, v := range m {
		if keep == nil || keep(k, v) {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	return keys
}

func (r *Replicator) start() {
	r.applyQ = sim.NewQueue[queued](r.env, 0)
	r.backQ = sim.NewQueue[queued](r.env, 0)
	r.env.Spawn("repl-engine", r.engine)
	for i := 0; i < applyPool; i++ {
		r.env.Spawn("repl-apply", r.lane(r.applyQ))
	}
	r.env.Spawn("repl-background", r.lane(r.backQ))
	r.env.Spawn("repl-scrub", r.scrubber)
	r.env.Spawn("repl-migrate", r.migrator)
}

// scrubBurst is how many digest rounds one kick arms. Repair writes that
// genuinely apply re-kick the receiving node, so convergence propagates
// transitively; exchanges that find nothing to fix do not, so a converged
// cluster goes quiet within one burst.
const scrubBurst = 8

// kick arms the anti-entropy scrubber: local replicated state changed, so
// it owes the peers a burst of digest exchanges.
func (r *Replicator) kick() {
	r.scrubLeft = scrubBurst
	if r.scrubWake != nil && !r.scrubWake.Fired() {
		r.scrubWake.Fire()
	}
}

// nextEpoch mints an epoch above cur: round counter in the high bits, the
// coordinator id in the low byte so concurrent coordinators never collide
// and comparison breaks ties deterministically.
func (r *Replicator) nextEpoch(cur uint64) uint64 {
	return ((cur>>8)+1)<<8 | uint64(r.cfg.ID&0xff)
}

// mint hands out the epoch of a new round for key: above the key's record,
// above floor — the conflicting epoch a re-coordinated round has to beat —
// and above every epoch handed out for the key before. A round opens at
// admission and is applied later, so several rounds of one key are open
// before the first moves the record (every member of a frame, every arrival
// of a non-blocking window): minted above the record alone they would share
// an epoch, the peers would ack the later ones as duplicate deliveries of the
// first, and a write answered STORED would be applied nowhere.
func (r *Replicator) mint(k protocol.Key, floor uint64) uint64 {
	ks := r.state(k)
	ks.minted = r.nextEpoch(max(floor, ks.epoch, ks.minted))
	return ks.minted
}

func (r *Replicator) state(k protocol.Key) *keyState {
	ks := r.keys.get(k)
	if ks == nil {
		ks = &keyState{}
		r.keys.put(k, ks)
	}
	return ks
}

// replicaPeers returns the key's replica set minus self, ascending for send
// determinism, and whether self is a member. The set is the union of the old
// and new rings while a migration is in flight, so forwards dual-apply and no
// interleaving with sealing can lose an acked write.
func (r *Replicator) replicaPeers(k protocol.Key) (peers peerSet, member bool) {
	for _, id := range r.replicaSet(k) {
		if id == r.cfg.ID {
			member = true
		} else {
			peers.add(id)
		}
	}
	return peers, member
}

// send posts one frame to a peer replicator over the verbs fabric, holding it
// for the post: the transfer gives that hold back after its last delivery. A
// frame sent to several peers is held once per peer.
func (r *Replicator) send(p *sim.Proc, pid int, f *frame) {
	pl := r.peers[pid]
	if pl == nil {
		return
	}
	f.From = r.cfg.ID
	f.Retain()
	pl.qp.PostSend(p, verbs.SendWR{Op: verbs.OpSend, Size: f.wireSize(), Payload: f})
}

// post sends f, built for this one send, to pid and drops its builder's hold.
func (r *Replicator) post(p *sim.Proc, pid int, f *frame) {
	r.send(p, pid, f)
	f.Release()
}

// Begin opens a replication round for an admitted SET and posts the forward
// frames, so the peer applies overlap the local storage phase. Returns nil
// for any other opcode (RMW post-images replicate inside Apply, after the
// local apply decides the outcome).
func (r *Replicator) Begin(p *sim.Proc, req *protocol.Request) *Forward {
	if req.Op != protocol.OpSet {
		return nil
	}
	fwd := r.open(req.HKey(), version{value: req.Value, size: req.ValueSize, flags: req.Flags})
	r.sendWrite(p, fwd)
	return fwd
}

// open registers the round of one write of key, minting v's epoch and stamping
// its content checksum. Nothing here suspends.
func (r *Replicator) open(k protocol.Key, v version) *Forward {
	peers, member := r.replicaPeers(k)
	r.nextID++
	fwd := r.rounds.Get()
	fwd.id, fwd.key, fwd.proxy, fwd.version = r.nextID, k, !member, v
	fwd.epoch = r.mint(k, 0)
	fwd.sum = protocol.ValueSum(v.value)
	fwd.open(peers)
	r.fwds[fwd.id] = fwd
	r.Counters.Inc(metrics.CForwards)
	return fwd
}

// sendWrite sends the round's write to every peer still owing an ack: one
// frame, shared by all of them. Receivers only read a frame, and send's
// stamp of the sender id is the same for every peer, so sharing is safe. A
// resend or a re-coordinated round sends a fresh frame: the earlier one may
// still be in flight.
func (r *Replicator) sendWrite(p *sim.Proc, fwd *Forward) {
	f := r.newFrame(frameWrite, fwd.key)
	f.ID, f.version = fwd.id, fwd.version
	for i := 0; i < fwd.peers.n; i++ {
		if fwd.waiting&(1<<i) != 0 {
			r.send(p, int(fwd.peers.ids[i]), f)
		}
	}
	f.Release()
}

// closeRound ends fwd's round: out of r.fwds, under the id it holds now (a
// re-coordinated round changes id), and back on its list.
func (r *Replicator) closeRound(fwd *Forward) {
	delete(r.fwds, fwd.id)
	if pool.Drop(fwd) {
		r.rounds.Put(fwd)
	}
}

// Apply performs the local storage work for one request: the first half of
// the replicated storage phase, which replaces store.Handle on servers with a
// replicator attached. fwd is the round Begin opened at admission time (nil
// for reads, RMW ops, and unreplicated opcodes). For a SET the ack
// wait is left to Finish, so the members of a frame apply back-to-back (inside
// the server's eviction-coalescing window) and their rounds overlap; GETs and
// RMW opcodes complete entirely here.
func (r *Replicator) Apply(p *sim.Proc, req *protocol.Request, fwd *Forward) *protocol.Response {
	switch req.Op {
	case protocol.OpSet:
		return r.applyLocalWrite(p, req, fwd)
	case protocol.OpGet:
		return r.executeGet(p, req)
	default:
		return r.executeRMW(p, req)
	}
}

// Finish completes the SET round behind resp, the answer Apply gave:
// wait for every replica ack, and fail the write with StatusNoReplica if the
// chain cannot be completed. The round goes back on its list: fwd is not
// touched after Finish.
func (r *Replicator) Finish(p *sim.Proc, resp *protocol.Response, fwd *Forward) {
	if fwd == nil {
		return
	}
	// A local apply that failed outright (recovering, too large) waits for no
	// ack: the client sees that failure; peers that applied anyway reconverge
	// via anti-entropy.
	if resp.Status == protocol.StatusStored && !r.await(p, fwd) {
		resp.Status = protocol.StatusNoReplica
		resp.Value, resp.ValueSize = nil, 0
	}
	r.closeRound(fwd)
}

// Discard ends the round of a write a crash discarded before its storage
// phase: nothing waits for its acks, and a late one finds no round.
func (r *Replicator) Discard(fwd *Forward) {
	if fwd != nil {
		r.closeRound(fwd)
	}
}

// applyLocalWrite applies a SET on the coordinator under the epoch guard.
func (r *Replicator) applyLocalWrite(p *sim.Proc, req *protocol.Request, fwd *Forward) *protocol.Response {
	if fwd == nil {
		return r.st.Handle(p, req)
	}
	resp := r.st.Reply(req.ReqID)
	resp.Status = protocol.StatusStored
	if fwd.proxy {
		// Pure coordinator: this server is not in the key's replica set
		// (the client failed over here). It forwards but must not keep a
		// local copy that nothing would ever repair.
		return resp
	}
	// Refused by the guard, a newer epoch is already applied locally — a
	// concurrent coordinator's, or a later round of this one: last-write-wins,
	// this write completes as overwritten.
	if st := r.install(p, fwd.key, &fwd.version, fwd.newer); st != protocol.StatusNotStored {
		resp.Status = st
	}
	return resp
}

// newer is the coordinator's guard: the round's epoch is still above the
// key's record ks.
func (fwd *Forward) newer(ks *keyState) bool { return fwd.epoch > ks.epoch }

// install is the one way a version of a key reaches the local store and —
// through landed — the epoch record, whoever coordinated the write and however
// it arrived. admit is the caller's rule for "this version may still replace
// the key's record" (the coordinator's newer, a write frame's judge). It is
// asked before the store call, so a version that is already stale costs no
// allocation and no time, and again by the store at the instant of the swap,
// because the call suspends — allocation, eviction, copy — and other writes of
// the key land meanwhile: the record never moves backwards and never names a
// value the store does not hold. The record is looked up once, and again at
// the swap only if it was dropped under the call (gone). A whole-node kill
// under the call refuses it too: the store it would swap into and the table
// it would record in are the dead incarnation's. Returns the store's status;
// StatusNotStored is a refusal, at either point.
func (r *Replicator) install(p *sim.Proc, k protocol.Key, v *version, admit func(*keyState) bool) protocol.Status {
	ks := r.state(k)
	if !admit(ks) {
		return protocol.StatusNotStored
	}
	gen := r.gen
	st := r.st.SetIf(p, k, v.size, v.value, v.flags, func() bool {
		if r.gen == gen && ks.gone {
			ks = r.state(k)
		}
		return r.gen == gen && admit(ks)
	})
	if st == protocol.StatusStored {
		r.landed(k, ks, v)
	}
	return st
}

// landed records that v is what the local store holds for key, in the same
// instant the store swapped it in: the epoch record ks (and with it the
// maintained digests) moves, a prior suspicion is cleared, the
// scrubber is armed, and whoever was waiting for the key — a migration want,
// an open pull and the readers parked on it — is answered.
func (r *Replicator) landed(k protocol.Key, ks *keyState, v *version) {
	r.setState(k, ks, v.epoch, false, v.sum)
	r.kick()
	r.migSatisfy(k, v.epoch)
	ks.closePull() // an open pull is satisfied by any confirmed write
}

// await blocks until every replica acked the forward, re-sending to
// laggards and re-coordinating above conflicting epochs. Returns false when
// the chain cannot be completed within the retry budget. The round stays
// registered until its caller closes it.
func (r *Replicator) await(p *sim.Proc, fwd *Forward) bool {
	coordRounds := 0
	for round := 0; ; round++ {
		if fwd.waiting != 0 {
			p.WaitTimeout(&fwd.done, ackTimeout)
		}
		if fwd.waiting == 0 {
			if fwd.conflict <= fwd.epoch {
				return true
			}
			// A replica rejected the apply holding a newer epoch.
			if ks := r.keys.get(fwd.key); ks != nil && ks.epoch >= fwd.conflict {
				// The newer write is already applied locally too: this
				// write completed and was overwritten, which is fine.
				return true
			}
			r.Counters.Inc(metrics.CEpochConflicts)
			coordRounds++
			if coordRounds > maxCoordRounds {
				return false
			}
			// Re-assert this write above the conflicting epoch so every
			// replica converges on it (deterministic last-write-wins).
			r.recoordinate(p, fwd)
			round = -1 // fresh resend budget for the new epoch
			continue
		}
		if round >= ackRetries {
			return false
		}
		r.Counters.Inc(metrics.CForwardResends)
		r.sendWrite(p, fwd)
	}
}

// recoordinate re-opens the round under a fresh epoch above the highest
// conflict seen, re-applies locally, and re-sends to every peer.
func (r *Replicator) recoordinate(p *sim.Proc, fwd *Forward) {
	delete(r.fwds, fwd.id)
	fwd.epoch = r.mint(fwd.key, fwd.conflict)
	fwd.conflict = 0
	r.nextID++
	fwd.id = r.nextID
	peers, member := r.replicaPeers(fwd.key)
	fwd.open(peers)
	r.fwds[fwd.id] = fwd
	if !fwd.proxy && member {
		r.install(p, fwd.key, &fwd.version, fwd.newer)
	}
	r.sendWrite(p, fwd)
}

// confirmedRead is the prologue a GET and an RMW share: run req against the
// local store only once this server may honestly answer for the key. Where
// it may not — it is no replica of the key, its copy is suspect and no peer
// confirms it, or the copy is corrupt and no peer repairs it — the answer is
// a refusal with the caller's status: a miss for a GET (always legal), a
// retryable rejection for an RMW (which must not be decided on a guess, so
// the client fails over to a replica that can). Also returns the key's peers.
func (r *Replicator) confirmedRead(p *sim.Proc, req *protocol.Request, refuse protocol.Status) (*protocol.Response, peerSet) {
	k := req.HKey()
	peers, member := r.replicaPeers(k)
	if !member {
		// This server holds nothing authoritative for the key.
		return r.refusal(req, refuse), peers
	}
	if r.mem.NeedsDoubleRead(r.cfg.ID, k) {
		// Double-read window: this server is gaining the key and has not
		// sealed its segment, so a local miss proves nothing. Consult the
		// old owners; if none answers in time, fail retryable — the client
		// fails over to an old owner rather than eat a fabricated miss (or
		// have an RMW decided against a phantom one).
		if !r.doubleRead(p, k) {
			r.Counters.Inc(metrics.CMigrateReadRedirects)
			return r.refusal(req, protocol.StatusRecovering), peers
		}
	}
	if ks := r.keys.get(k); ks != nil && ks.suspect {
		if !r.syncPull(p, k, ks, &peers) {
			// Unconfirmed cold-recovered value and no peer reachable: refuse
			// it rather than resurrect a superseded epoch.
			r.Counters.Inc(metrics.CStaleReadsPrevented)
			return r.refusal(req, refuse), peers
		}
	}
	resp := r.st.Handle(p, req)
	if resp.Status == protocol.StatusCorrupt {
		// The local copy failed integrity verification mid-read (the store
		// already quarantined it and marked us suspect via OnCorrupt).
		// Treat it exactly like a suspect miss: confirm against the peer
		// replicas, and run the request on the repaired copy instead of
		// garbage. Only when no peer can help does this degrade to a refusal.
		// A replaced answer was never sent: it goes back to the free list.
		if r.syncPull(p, k, r.state(k), &peers) {
			resp.Release()
			resp = r.st.Handle(p, req)
		}
		if resp.Status == protocol.StatusCorrupt {
			resp.Release()
			resp = r.refusal(req, refuse)
		}
	}
	return resp, peers
}

// executeGet serves a replicated GET: a confirmed read, whose served hits
// periodically probe the peers for epoch divergence (read repair).
func (r *Replicator) executeGet(p *sim.Proc, req *protocol.Request) *protocol.Response {
	k := req.HKey()
	resp, peers := r.confirmedRead(p, req, protocol.StatusNotFound)
	if resp.Status == protocol.StatusOK {
		r.gets++
		if r.gets%readRepairEvery == 0 {
			f := r.newFrame(frameProbe, k)
			if ks := r.keys.get(k); ks != nil {
				f.epoch, f.sum = ks.epoch, ks.sum // the record behind the hit
			}
			for i := 0; i < peers.n; i++ {
				r.send(p, int(peers.ids[i]), f)
			}
			f.Release()
		}
	}
	return resp
}

// executeRMW handles the conditional and read-modify-write commands (add,
// cas, incr): the local store decides the outcome on a confirmed read, then
// the post-image is replicated like a SET.
func (r *Replicator) executeRMW(p *sim.Proc, req *protocol.Request) *protocol.Response {
	k := req.HKey()
	gen := r.gen
	resp, _ := r.confirmedRead(p, req, protocol.StatusRecovering)
	switch resp.Status {
	case protocol.StatusStored, protocol.StatusOK:
	default:
		return resp
	}
	// Nothing has suspended since the store swapped the command's result in: the
	// record still names what the key held before.
	was := r.state(k).epoch
	// Replicate the post-image just applied (it may already live on SSD —
	// ReadItem loads it back without disturbing LRU or stats).
	value, size, flags, ok := r.st.ReadItem(p, k)
	if !ok {
		// Evicted-and-dropped in the same instant: nothing replicable; the
		// key is now a legal miss everywhere.
		return resp
	}
	if r.gen != gen || r.state(k).epoch != was {
		// A write of the key landed here while the post-image was being read
		// back (or the node died under the command) and replaced what the
		// command stored: it completes as overwritten, with nothing to forward.
		return resp
	}
	fwd := r.open(k, version{value: value, size: size, flags: flags})
	if !fwd.proxy {
		// The local copy was applied by Handle; record it like a SET, in the
		// instant its epoch is minted (the sends suspend), so a prior
		// suspicion on the key cannot outlive it.
		r.landed(k, r.state(k), &fwd.version)
	}
	r.sendWrite(p, fwd)
	if !r.await(p, fwd) {
		resp.Status = protocol.StatusNoReplica
		resp.Value, resp.ValueSize = nil, 0
	}
	r.closeRound(fwd)
	return resp
}

// refusal answers req with a bare status, the store not consulted.
func (r *Replicator) refusal(req *protocol.Request, st protocol.Status) *protocol.Response {
	resp := r.st.Reply(req.ReqID)
	resp.Status = st
	return resp
}

// syncPull confirms a suspect key against its peer replicas: the first
// peer pushing a confirmed copy (any epoch ≥ 1) clears the suspicion; if
// every peer answers "don't have it" the local recovered value is dropped
// (a miss is always legal; serving an unconfirmable resurrected value is
// not) and the request runs against the key as it now is, absent: a GET
// misses, an RMW is decided on a key that does not exist. Returns false on
// timeout, and when the pull concluded with the key still suspect.
func (r *Replicator) syncPull(p *sim.Proc, k protocol.Key, ks *keyState, peers *peerSet) bool {
	if peers.n == 0 {
		// Degenerate single-replica set: nobody can confirm; keep serving
		// the recovered value as the unreplicated system would.
		r.setState(k, ks, ks.epoch, false, ks.sum)
		return true
	}
	return r.waitPull(p, ks, r.openPull(p, k, ks, peers, metrics.CRepairPulls)) && (!ks.suspect || ks.gone)
}

// openPull asks every one of peers for its confirmed copy of key and returns
// the event that fires when the pull concludes: a confirmed write of the key
// lands (landed), or every peer asked holds none (handlePullMiss). A key has
// one pull at a time — a suspect confirmation, a corrupt read's background
// repair and a migration double-read that coincide share it, with all their
// readers — so with one open this only returns its event. counter names what
// a newly opened round is counted as.
func (r *Replicator) openPull(p *sim.Proc, k protocol.Key, ks *keyState, peers *peerSet, counter metrics.Counter) *sim.Event {
	if ks.pull != nil {
		return ks.pull
	}
	ev := r.env.NewEvent()
	ks.pull, ks.pullFrom = ev, make(map[int]bool, peers.n)
	f := r.newFrame(framePull, k)
	for i := 0; i < peers.n; i++ {
		pid := int(peers.ids[i])
		ks.pullFrom[pid] = true
		r.send(p, pid, f)
	}
	f.Release()
	r.Counters.Inc(counter)
	return ev
}

// waitPull parks the caller on a pull of ks's key until it concludes or
// pullTimeout passes, and reports which. On a timeout the pull is abandoned
// (not fired: readers that joined it later keep their own timeouts), so the
// next reader opens a fresh round — the frames may have been lost.
func (r *Replicator) waitPull(p *sim.Proc, ks *keyState, ev *sim.Event) bool {
	p.WaitTimeout(ev, pullTimeout)
	if !ev.Fired() && ks.pull == ev {
		ks.pull, ks.pullFrom = nil, nil
	}
	return ev.Fired()
}

// closePull concludes the key's open pull, if it has one: every reader parked
// on it resumes.
func (ks *keyState) closePull() {
	if ks.pull != nil {
		ks.pull.Fire()
		ks.pull, ks.pullFrom = nil, nil
	}
}

// Wipe models whole-node RAM loss: every epoch record, open forward, and
// pending pull — including per-segment migration state — dies with the
// node. Called by Server.Kill. The migrator starts the segment it was on
// over on its next round and re-pulls whatever of it the wipe destroyed.
// Frames waiting in a lane are not searched out: each carries the incarnation
// it arrived in, and the lane drops it when its turn comes.
func (r *Replicator) Wipe() {
	r.gen++
	for b := range r.keys {
		for _, ks := range r.keys[b].All() {
			ks.gone = true
		}
		r.keys[b].Clear()
	}
	r.dropDigests()
	r.fwds = make(map[uint64]*Forward)
	r.migPulls = [Segments]*segPull{}
}

// OnColdRecovery marks every cold-recovered key suspect: the SSD resurrects
// values, but the epoch table proving their freshness died with the node,
// so each must be re-confirmed against a peer before it is served. The
// server calls this at the end of the recovery scan, before accepting
// requests again.
func (r *Replicator) OnColdRecovery(keys []protocol.Key) {
	for _, k := range keys {
		ks := r.state(k)
		r.setState(k, ks, 0, true, 0)
		ks.pull, ks.pullFrom = nil, nil
	}
	// Arm the scrubber even when nothing was recovered (wiped SSD): the
	// digest exchange is how this node learns what the survivors hold.
	r.kick()
}

// OnCorrupt is the store's corrupt-read hook: a foreground read just
// failed integrity verification and the local copy is gone (quarantined).
// Mark the key suspect — keeping its epoch, so peers' same-epoch pushes
// still apply — and open a background pull immediately, so the key is
// repaired even if no client ever retries it. The reader that tripped the
// corruption joins this same pull through executeGet's syncPull.
func (r *Replicator) OnCorrupt(p *sim.Proc, k protocol.Key) {
	ks := r.state(k)
	r.setState(k, ks, ks.epoch, true, ks.sum)
	peers, member := r.replicaPeers(k)
	if !member || peers.n == 0 {
		return
	}
	r.openPull(p, k, ks, &peers, metrics.CRepairPulls)
	r.kick()
}

// winsSameEpoch decides which of two replicas holding the same epoch with
// different bytes keeps its copy: the epoch's coordinator (the minting
// server, encoded in the epoch's low byte) wins; between two backups the
// lower id wins, purely for determinism. Exactly one side of any pair wins,
// so divergence repair converges instead of oscillating.
func winsSameEpoch(senderID, myID int, epoch uint64) bool {
	coord := int(epoch & 0xff)
	if senderID == coord {
		return true
	}
	if myID == coord {
		return false
	}
	return senderID < myID
}

// engine is the replicator's communication phase: it drains the receive CQ and
// hands every frame to the lane that handles it, and suspends nowhere else —
// in particular never in the store, so neither a forward nor an ack for one of
// this node's own rounds waits behind the store call of the frame before it.
func (r *Replicator) engine(p *sim.Proc) {
	for {
		c := r.recvCQ.WaitPoll(p)
		// Replenish before looking at isDown: the NIC of a dead node still
		// consumes a receive per frame, and a pool left to run dry while the
		// process is down would strand the peers' sends long after it is back.
		c.QP.PostRecv(verbs.RecvWR{})
		if f, ok := c.Payload.(*frame); ok {
			if r.isDown() { // a dead node neither applies nor acks
				f.Release()
			} else {
				r.demux(f)
			}
		}
	}
}

// demux is the three lanes. An ack is handled on the spot: it frees a request
// that is waiting for nothing else. A coordinator's forward — the one frame a
// client is waiting on at this end — goes to the apply pool, where forwards of
// one key may land in either order: install's swap-time guard is what makes
// that safe. Everything else is background and keeps its arrival order on one
// process, so a scrub round's diff still follows the previous round's repairs.
// A forward is therefore no longer ordered against the background frames of
// the same peer; the same guard covers that too. Neither hand-off suspends.
// The delivery's hold on f goes with it into a lane, or is given back here
// for an ack.
func (r *Replicator) demux(f *frame) {
	q := r.backQ
	switch {
	case f.Kind == frameAck:
		r.handleAck(f)
		f.Release()
		return
	case f.Kind == frameWrite && !f.Repair:
		q = r.applyQ
	}
	q.TryPut(queued{f, r.gen}) // both lanes are unbounded
}

// queued is a frame waiting in a lane, with the incarnation it arrived in (a
// frame is shared by every peer it was sent to, so the stamp is beside it).
type queued struct {
	f   *frame
	gen uint64
}

// lane serves one queue, a frame at a time. What the engine's inline call gave
// for free is asked again here, at dequeue: a frame that arrived before a
// whole-node kill belongs to the dead incarnation, and one that arrived a
// microsecond before a crash is neither applied nor acked after it. Either
// way the frame's delivery hold is given back once its turn is over.
func (r *Replicator) lane(q *sim.Queue[queued]) func(*sim.Proc) {
	return func(p *sim.Proc) {
		for {
			it, _ := q.Get(p)
			if it.gen == r.gen && !r.isDown() {
				r.handle(p, it.f)
			}
			it.f.Release()
		}
	}
}

// handle runs one queued frame; acks never get here.
func (r *Replicator) handle(p *sim.Proc, f *frame) {
	switch f.Kind {
	case frameWrite:
		r.handleWrite(p, f)
	case framePull: // a peer's confirmation request: our confirmed copy, or a miss
		r.pushKey(p, f.From, f.Key)
	case framePullMiss:
		r.handlePullMiss(p, f)
	case frameProbe:
		r.handleProbe(p, f)
	case frameDigest:
		r.handleDigest(p, f)
	case frameDiff:
		r.handleDiff(p, f)
	case frameSegPull:
		r.handleSegPull(p, f)
	case frameSegManifest:
		r.handleSegManifest(p, f)
	}
}

// verdict is what judge makes of a write frame.
type verdict int

const (
	stale     verdict = iota // below the record: reject, naming the newer epoch
	duplicate                // the record already is this version: ack, apply nothing
	lands                    // goes to the store
	repairs                  // lands, replacing diverged bytes at the same epoch
)

// judge decides what write frame f — its value verified, sum its content
// checksum — does to the key's record ks as it stands at this instant.
func (r *Replicator) judge(f *frame, sum uint64, ks *keyState) verdict {
	switch {
	case f.epoch < ks.epoch:
		return stale
	case f.epoch == ks.epoch && f.epoch != 0:
		// Same epoch at both ends normally means duplicate delivery: ack
		// idempotently without re-applying. Two exceptions genuinely need
		// the apply. A suspect local copy (corrupt read, cold recovery) lost
		// its value: any confirmed same-epoch push restores it. And a
		// content-divergence repair — same epoch, different bytes — applies
		// when the sender's copy wins the coordinator rule, which is how the
		// scrub fixes silent corruption that an epoch comparison alone would
		// never see.
		diverged := f.Repair && sum != ks.sum && winsSameEpoch(f.From, r.cfg.ID, f.epoch)
		switch {
		case diverged && !ks.suspect:
			return repairs
		case !ks.suspect && ks.pull == nil:
			return duplicate
		}
	}
	return lands
}

// handleWrite applies a forwarded or repair write: verified, judged, and
// installed with the same judgement as its swap-time guard. A forward is
// answered with what became of it; a repair push is never acked.
func (r *Replicator) handleWrite(p *sim.Proc, f *frame) {
	v := f.version
	// The one recompute on the receiving side: it verifies the frame, and
	// the epoch record takes it if the write applies.
	if v.sum = protocol.ValueSum(f.value); f.sum != 0 && v.sum != f.sum {
		// The frame's value no longer matches the checksum the sender
		// stamped: it was corrupted in flight. Reject silently — never
		// apply, never ack — and let the coordinator's resend rounds (or
		// anti-entropy) deliver a clean copy.
		r.Counters.Inc(metrics.CCorruptFramesRejected)
		return
	}
	var how verdict
	var judged *keyState
	st := r.install(p, f.Key, &v, func(ks *keyState) bool {
		how, judged = r.judge(f, v.sum, ks), ks
		return how >= lands
	})
	if how == repairs && st == protocol.StatusStored {
		r.Counters.Inc(metrics.CScrubCorruptionsRepaired)
	}
	if f.Repair {
		return
	}
	applied := how == duplicate || st == protocol.StatusStored
	if how != stale && !applied {
		// The store refused (recovering, allocation failure): stay silent;
		// the coordinator's resend rounds (or anti-entropy) will retry once
		// we can apply.
		return
	}
	ack := r.newFrame(frameAck, f.Key)
	ack.ID, ack.Applied, ack.epoch = f.ID, applied, f.epoch
	if how == stale {
		ack.epoch = judged.epoch // tell the coordinator the newer epoch
	}
	r.post(p, f.From, ack)
}

func (r *Replicator) handleAck(f *frame) {
	fwd := r.fwds[f.ID]
	if fwd == nil {
		return // stale ack
	}
	i := fwd.peers.index(f.From)
	if i < 0 || fwd.waiting&(1<<i) == 0 {
		return // duplicate ack
	}
	fwd.waiting &^= 1 << i
	if !f.Applied && f.epoch > fwd.epoch && f.epoch > fwd.conflict {
		fwd.conflict = f.epoch
	}
	if fwd.waiting == 0 {
		fwd.done.Fire()
	}
}

// pushKey sends our confirmed copy of key to a peer as a repair write: the
// value and the epoch it was written under, as they stand together in one
// instant. Reading the value back suspends (a copy, or an SSD load), and a
// write of the key landing meanwhile releases the item being read and moves
// the record — the released item's emptiness would go out under the new epoch
// — so a read the record moved under is done again. With nothing confirmed
// (never propagate an unconfirmed value), or a value that is gone: a miss.
func (r *Replicator) pushKey(p *sim.Proc, pid int, k protocol.Key) {
	for {
		ks := r.keys.get(k)
		if !ks.confirmed() {
			r.post(p, pid, r.newFrame(framePullMiss, k))
			return
		}
		v := version{epoch: ks.epoch}
		value, size, flags, ok := r.st.ReadItem(p, k)
		if ks.gone || ks.confirmedEpoch() != v.epoch {
			continue
		}
		if !ok {
			// The slab layer dropped the value (eviction under pressure): stop
			// claiming the epoch in digests; a peer's copy can repair us later.
			r.dropState(k)
			r.post(p, pid, r.newFrame(framePullMiss, k))
			return
		}
		v.value, v.size, v.flags, v.sum = value, size, flags, protocol.ValueSum(value)
		r.Counters.Inc(metrics.CRepairPushes)
		f := r.newFrame(frameWrite, k)
		f.Repair, f.version = true, v
		r.post(p, pid, f)
		return
	}
}

// handlePullMiss records a peer's "don't have it" answer to an open pull;
// when every peer missed, the local recovered value is dropped — a miss is
// legal, resurrecting an unconfirmable value is not.
func (r *Replicator) handlePullMiss(p *sim.Proc, f *frame) {
	// An open migration want is bookkept independently of the suspect pull:
	// the same framePull serves both, so a miss answers both.
	r.migPullMissed(f.Key, f.From)
	ks := r.keys.get(f.Key)
	if ks == nil || ks.pull == nil || !ks.pullFrom[f.From] {
		// No open pull, or this peer already answered: the fault injector
		// duplicates frames, and one peer missing twice must not count as
		// two peers missing.
		return
	}
	delete(ks.pullFrom, f.From)
	if len(ks.pullFrom) > 0 {
		return
	}
	// The drop is a store call like any other: its probe suspends, and a write
	// of the key landing under it must lose neither its value nor its record.
	unconfirmed := func() bool { return ks.suspect && !ks.gone }
	if unconfirmed() && r.st.DeleteIf(p, f.Key, unconfirmed) != protocol.StatusNotStored {
		r.dropState(f.Key)
		r.Counters.Inc(metrics.CSuspectDrops)
	}
	ks.closePull()
}

// handleProbe is the read-repair rendezvous: a replica that served a GET
// tells us the record it served, and we reconcile against it — behind, we ask
// it to push; ahead, we push our fresher copy back.
func (r *Replicator) handleProbe(p *sim.Proc, f *frame) {
	r.reconcile(p, f.From, KeyEpoch{Key: f.Key, Epoch: f.epoch, Sum: f.sum})
}
