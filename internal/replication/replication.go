package replication

import (
	"cmp"
	"fmt"
	"slices"

	"hybridkv/internal/metrics"
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
	// Factor is the replication factor R: each key lives on its primary
	// plus R−1 backups.
	Factor int
	// ScrubInterval is the anti-entropy digest exchange period. Zero
	// selects the default (2 ms); a negative value disables the scrubber
	// entirely (the bitrot experiment's verify-without-scrub cells).
	ScrubInterval sim.Time
	// Pacer throttles background traffic (scrub digest rounds and
	// migration pull rounds) behind a token bucket that yields to the host
	// server's foreground load. The zero value disables pacing: background
	// rounds run exactly as before.
	Pacer PacerConfig
}

// PacerConfig switches the background-traffic token bucket. When Enabled,
// every anti-entropy digest round and every migration pull round first takes
// a token; tokens refill one per paceRefillEvery up to paceBurst. A round that
// finds the bucket empty — or the host server's foreground-busy probe
// (SetBusy) asserted — is deferred, never dropped: it sleeps a refill interval
// and retries, so convergence and rebalance finalization are delayed but never
// lost. paceMaxDefer bounds how long the busy probe alone can hold a round
// back, so a permanently-loaded server still scrubs and migrates.
type PacerConfig struct {
	Enabled bool
}

// The protocol's fixed parameters.
const (
	// readRepairEvery probes the peer replicas for epoch divergence on
	// every Nth served GET hit.
	readRepairEvery = 8
	// scrubBuckets is the digest width: keys fold into this many buckets.
	scrubBuckets = 32
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

func (c *Config) fill() {
	if c.ScrubInterval == 0 {
		c.ScrubInterval = 2 * sim.Millisecond
	}
}

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
	del     bool // tombstone: the latest epoch deleted the key
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
	gone bool

	// Open synchronous pull, shared by concurrent readers of the key.
	pull     *sim.Event
	pullFrom map[int]bool // peers yet to answer; data or all-miss fires the event
}

// maxRoundPeers bounds the peers of one key: its replica set minus self,
// which during a migration is the union of two rings' sets. New rejects a
// Factor that could exceed it.
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
// peer forwards overlap the coordinator's local storage phase. It is one
// allocation: the peers it waits for, the event it waits on and the write
// frame of its first send are all inside it. A resend or a re-coordinated
// round sends a fresh frame, because the earlier one may still be in flight.
//
// The coordinating request's proc owns the Forward; r.fwds holds it from
// begin until await (or Finish, for a write that failed locally) drops
// it, and the fabric and the peers hold pointers into first until the frames
// are delivered and handled. Nothing is recycled, so none of them can
// outlive it.
type Forward struct {
	id  uint64
	key string
	version

	peers    peerSet
	waiting  uint32    // bit i: peers.ids[i] still owes an ack
	proxy    bool      // coordinator is not in the replica set: no local apply
	conflict uint64    // highest epoch seen in stale-reject acks
	done     sim.Event // fired when waiting drains
	first    frame     // the write frame of the round's first send
	sends    int       // sendWrite calls so far
}

// open (re)arms the round: every peer owes an ack.
func (fwd *Forward) open(env *sim.Env, peers peerSet) {
	fwd.peers = peers
	fwd.waiting = 1<<peers.n - 1
	fwd.done.Init(env)
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
	qpByQPN map[int]*verbs.QP

	// gen counts Wipes: the incarnation of everything below. A proc suspended
	// across a whole-node kill resumes in the next one (install, migrateSegment),
	// and a frame that waited in a lane across one is dropped at dequeue.
	gen       uint64
	keys      map[string]*keyState
	digestsAt placement // what the peers' maintained digests were computed under
	fwds      map[uint64]*Forward
	nextID    uint64
	gets      uint64 // served GET hits, drives the read-repair cadence

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
	migPulls map[int]*segPull

	// Counters: DESIGN.md §10 says what each one counts.
	Counters *metrics.Counters
}

// New creates a replicator for server cfg.ID over its store and device,
// reading every replica set from the shared membership mem — the union of the
// old and the new ring's while a migration is in flight — and waking its
// migrator at every transition mem begins. Interconnect (or Join) must wire
// it into the mesh before the simulation runs.
func New(env *sim.Env, cfg Config, mem *Membership, st *store.Store, dev *verbs.Device) *Replicator {
	cfg.fill()
	if 2*cfg.Factor > maxRoundPeers {
		panic(fmt.Sprintf("replication: factor %d: a migrating key could have more than %d peers", cfg.Factor, maxRoundPeers))
	}
	r := &Replicator{
		env: env, cfg: cfg, mem: mem, st: st, dev: dev,
		peers:    make(map[int]*peerLink),
		qpByQPN:  make(map[int]*verbs.QP),
		keys:     make(map[string]*keyState),
		fwds:     make(map[uint64]*Forward),
		migPulls: make(map[int]*segPull),
		Counters: metrics.NewCounters(),
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
	if !r.cfg.Pacer.Enabled {
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
		r.Counters.Add(string(metrics.CPacerDeferrals), 1)
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
	a.qpByQPN[qa.QPN()] = qa
	b.qpByQPN[qb.QPN()] = qb
	a.refreshPeerIDs()
	b.refreshPeerIDs()
}

func (r *Replicator) refreshPeerIDs() { r.peerIDs = sortedKeys(r.peers, nil) }

// sortedKeys lists the keys of m that keep admits (nil: all of them),
// ascending. Map iteration order is random per run, and whatever a replicator
// emits from a map — a diff's entries, a manifest, resent pulls, the GC sweep,
// its own peer list — must come out in the same order every run.
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
func (r *Replicator) mint(key string, floor uint64) uint64 {
	ks := r.state(key)
	ks.minted = r.nextEpoch(max(floor, ks.epoch, ks.minted))
	return ks.minted
}

func (r *Replicator) state(key string) *keyState {
	ks := r.keys[key]
	if ks == nil {
		ks = &keyState{}
		r.keys[key] = ks
	}
	return ks
}

// replicaPeers returns the key's replica set minus self, ascending for send
// determinism, and whether self is a member. The set is the union of the old
// and new rings while a migration is in flight, so forwards dual-apply and no
// interleaving with sealing can lose an acked write.
func (r *Replicator) replicaPeers(key string) (peers peerSet, member bool) {
	for _, id := range r.replicaSet(key) {
		if id == r.cfg.ID {
			member = true
		} else {
			peers.add(id)
		}
	}
	return peers, member
}

// send posts one frame to a peer replicator over the verbs fabric.
func (r *Replicator) send(p *sim.Proc, pid int, f *frame) {
	pl := r.peers[pid]
	if pl == nil {
		return
	}
	f.From = r.cfg.ID
	pl.qp.PostSend(p, verbs.SendWR{Op: verbs.OpSend, Size: f.wireSize(), Payload: f})
}

// Begin opens a replication round for an admitted SET or DELETE and posts
// the forward frames, so the peer applies overlap the local storage phase.
// Returns nil for any other opcode (RMW post-images replicate inside
// Apply, after the local apply decides the outcome).
func (r *Replicator) Begin(p *sim.Proc, req *protocol.Request) *Forward {
	var v version
	switch req.Op {
	case protocol.OpSet:
		v = version{value: req.Value, size: req.ValueSize, flags: req.Flags, expire: req.Expire}
	case protocol.OpDelete:
		v.del = true
	default:
		return nil
	}
	fwd := r.open(req.Key, v)
	r.sendWrite(p, fwd)
	return fwd
}

// open registers the round of one write of key, minting v's epoch and stamping
// its content checksum. Nothing here suspends.
func (r *Replicator) open(key string, v version) *Forward {
	peers, member := r.replicaPeers(key)
	r.nextID++
	fwd := &Forward{id: r.nextID, key: key, proxy: !member, version: v}
	fwd.epoch = r.mint(key, 0)
	if !v.del {
		fwd.sum = protocol.ValueSum(v.value)
	}
	fwd.open(r.env, peers)
	r.fwds[fwd.id] = fwd
	r.Counters.Add("forwards", 1)
	return fwd
}

// sendWrite sends the round's write to every peer still owing an ack: one
// frame, shared by all of them. Receivers only read a frame, and send's
// stamp of the sender id is the same for every peer, so sharing is safe.
func (r *Replicator) sendWrite(p *sim.Proc, fwd *Forward) {
	f := &fwd.first
	if fwd.sends > 0 {
		f = new(frame)
	}
	fwd.sends++
	*f = frame{Kind: frameWrite, ID: fwd.id, Key: fwd.key, version: fwd.version}
	for i := 0; i < fwd.peers.n; i++ {
		if fwd.waiting&(1<<i) != 0 {
			r.send(p, int(fwd.peers.ids[i]), f)
		}
	}
}

// Apply performs the local storage work for one request: the first half of
// the replicated storage phase, which replaces store.Handle on servers with a
// replicator attached. fwd is the round Begin opened at admission time (nil
// for reads, RMW ops, and unreplicated opcodes). For SET and DELETE the ack
// wait is left to Finish, so the members of a frame apply back-to-back (inside
// the server's eviction-coalescing window) and their rounds overlap; GETs and
// RMW opcodes complete entirely here.
func (r *Replicator) Apply(p *sim.Proc, req *protocol.Request, fwd *Forward) *protocol.Response {
	switch req.Op {
	case protocol.OpSet, protocol.OpDelete:
		return r.applyLocalWrite(p, req, fwd)
	case protocol.OpGet:
		return r.executeGet(p, req)
	case protocol.OpFlushAll:
		// flush_all is a cache-wide administrative wipe, not a keyed write;
		// it is deliberately not replicated (each server is flushed by the
		// operator individually, as with real memcached pools).
		return r.st.Handle(p, req)
	default:
		return r.executeRMW(p, req)
	}
}

// Finish completes the SET/DELETE round behind resp, the answer Apply gave:
// wait for every replica ack, and fail the write with StatusNoReplica if the
// chain cannot be completed.
func (r *Replicator) Finish(p *sim.Proc, resp *protocol.Response, fwd *Forward) {
	if fwd == nil {
		return
	}
	if !applied(resp.Status) {
		// Local apply failed outright (recovering, too large): the client
		// sees that failure; peers that applied anyway reconverge via
		// anti-entropy.
		delete(r.fwds, fwd.id)
		return
	}
	if !r.await(p, fwd) {
		resp.Status = protocol.StatusNoReplica
		resp.Value, resp.ValueSize = nil, 0
	}
}

// applyLocalWrite applies a SET/DELETE on the coordinator under the epoch
// guard.
func (r *Replicator) applyLocalWrite(p *sim.Proc, req *protocol.Request, fwd *Forward) *protocol.Response {
	if fwd == nil {
		return r.st.Handle(p, req)
	}
	resp := &protocol.Response{Op: protocol.OpResponse, ReqID: req.ReqID, Status: protocol.StatusStored}
	if fwd.del {
		resp.Status = protocol.StatusDeleted
	}
	if fwd.proxy {
		// Pure coordinator: this server is not in the key's replica set
		// (the client failed over here). It forwards but must not keep a
		// local copy that nothing would ever repair.
		return resp
	}
	// Refused by the guard, a newer epoch is already applied locally — a
	// concurrent coordinator's, or a later round of this one: last-write-wins,
	// this write completes as overwritten.
	if st := r.install(p, fwd.key, &fwd.version, func() bool { return r.newer(fwd) }); st != protocol.StatusNotStored {
		resp.Status = st
	}
	return resp
}

// newer is the coordinator's guard: the round's epoch is still above the
// key's record.
func (r *Replicator) newer(fwd *Forward) bool { return fwd.epoch > r.state(fwd.key).epoch }

// applied reports whether a store status means the write is what the store
// now holds (deleting an absent key included).
func applied(st protocol.Status) bool {
	return st == protocol.StatusStored || st == protocol.StatusDeleted || st == protocol.StatusNotFound
}

// install is the one way a version of a key reaches the local store and —
// through landed — the epoch record, whoever coordinated the write and however
// it arrived. admit is the caller's rule for "this version may still replace
// what the key holds" (the coordinator's newer, a write frame's judge). It is
// asked before the store call, so a version that is already stale costs no
// allocation and no time, and again by the store at the instant of the swap,
// because the call suspends — allocation, eviction, copy — and other writes of
// the key land meanwhile: the record never moves backwards and never names a
// value the store does not hold. A whole-node kill under the call refuses it
// too: the store it would swap into and the table it would record in are the
// dead incarnation's. Returns the store's status; StatusNotStored is a
// refusal, at either point.
func (r *Replicator) install(p *sim.Proc, key string, v *version, admit func() bool) protocol.Status {
	if !admit() {
		return protocol.StatusNotStored
	}
	gen := r.gen
	guard := func() bool { return r.gen == gen && admit() }
	var st protocol.Status
	if v.del {
		st = r.st.DeleteIf(p, key, guard)
	} else {
		st = r.st.SetIf(p, key, v.size, v.value, v.flags, v.expire, guard)
	}
	if applied(st) {
		r.landed(key, v)
	}
	return st
}

// landed records that v is what the local store holds for key, in the same
// instant the store swapped it in: the epoch record (and with it the
// maintained digests) moves, a prior tombstone or suspicion is cleared, the
// scrubber is armed, and whoever was waiting for the key — a migration want,
// an open pull and the readers parked on it — is answered.
func (r *Replicator) landed(key string, v *version) {
	ks := r.state(key)
	r.setState(key, ks, v.epoch, v.del, false, v.sum)
	r.kick()
	r.migSatisfy(key, v.epoch)
	ks.closePull() // an open pull is satisfied by any confirmed write
}

// await blocks until every replica acked the forward, re-sending to
// laggards and re-coordinating above conflicting epochs. Returns false when
// the chain cannot be completed within the retry budget.
func (r *Replicator) await(p *sim.Proc, fwd *Forward) bool {
	// recoordinate re-registers the round under a new id: delete whichever
	// one is current when the wait ends.
	defer func() { delete(r.fwds, fwd.id) }()
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
			if ks := r.keys[fwd.key]; ks != nil && ks.epoch >= fwd.conflict {
				// The newer write is already applied locally too: this
				// write completed and was overwritten, which is fine.
				return true
			}
			r.Counters.Add("epoch-conflicts", 1)
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
		r.Counters.Add("forward-resends", 1)
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
	fwd.open(r.env, peers)
	r.fwds[fwd.id] = fwd
	if !fwd.proxy && member {
		r.install(p, fwd.key, &fwd.version, func() bool { return r.newer(fwd) })
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
	peers, member := r.replicaPeers(req.Key)
	if !member {
		// This server holds nothing authoritative for the key.
		return refusal(req, refuse), peers
	}
	if r.mem.NeedsDoubleRead(r.cfg.ID, req.Key) {
		// Double-read window: this server is gaining the key and has not
		// sealed its segment, so a local miss proves nothing. Consult the
		// old owners; if none answers in time, fail retryable — the client
		// fails over to an old owner rather than eat a fabricated miss (or
		// have an RMW decided against a phantom one).
		if !r.doubleRead(p, req.Key) {
			r.Counters.Add("migrate-read-redirects", 1)
			return refusal(req, protocol.StatusRecovering), peers
		}
	}
	if ks := r.keys[req.Key]; ks != nil && ks.suspect {
		if !r.syncPull(p, req.Key, ks, &peers) {
			// Unconfirmed cold-recovered value and no peer reachable: refuse
			// it rather than resurrect a superseded epoch.
			r.Counters.Add("stale-reads-prevented", 1)
			return refusal(req, refuse), peers
		}
	}
	resp := r.st.Handle(p, req)
	if resp.Status == protocol.StatusCorrupt {
		// The local copy failed integrity verification mid-read (the store
		// already quarantined it and marked us suspect via OnCorrupt).
		// Treat it exactly like a suspect miss: confirm against the peer
		// replicas, and run the request on the repaired copy instead of
		// garbage. Only when no peer can help does this degrade to a refusal.
		if r.syncPull(p, req.Key, r.state(req.Key), &peers) {
			resp = r.st.Handle(p, req)
			if resp.Status == protocol.StatusOK || resp.Status == protocol.StatusStored {
				r.Counters.Add("corrupt-read-repairs", 1)
			}
		}
		if resp.Status == protocol.StatusCorrupt {
			resp = refusal(req, refuse)
		}
	}
	return resp, peers
}

// executeGet serves a replicated GET: a confirmed read, whose served hits
// periodically probe the peers for epoch divergence (read repair).
func (r *Replicator) executeGet(p *sim.Proc, req *protocol.Request) *protocol.Response {
	resp, peers := r.confirmedRead(p, req, protocol.StatusNotFound)
	if resp.Status == protocol.StatusOK {
		r.gets++
		if r.gets%readRepairEvery == 0 {
			var served version // the record behind the hit: epoch, tombstone, content sum
			if ks := r.keys[req.Key]; ks != nil {
				served = version{epoch: ks.epoch, del: ks.del, sum: ks.sum}
			}
			for i := 0; i < peers.n; i++ {
				r.send(p, int(peers.ids[i]), &frame{Kind: frameProbe, Key: req.Key, version: served})
			}
		}
	}
	return resp
}

// executeRMW handles the conditional/mutating command set (add, replace,
// cas, append, prepend, incr, decr, touch): the local store decides the
// outcome on a confirmed read, then the post-image is replicated like a SET.
func (r *Replicator) executeRMW(p *sim.Proc, req *protocol.Request) *protocol.Response {
	gen := r.gen
	resp, _ := r.confirmedRead(p, req, protocol.StatusRecovering)
	switch resp.Status {
	case protocol.StatusStored, protocol.StatusOK:
	default:
		return resp
	}
	// Nothing has suspended since the store swapped the command's result in: the
	// record still names what the key held before.
	was := r.state(req.Key).epoch
	// Replicate the post-image just applied (it may already live on SSD —
	// ReadItem loads it back without disturbing LRU or stats).
	value, size, flags, expireAt, ok := r.st.ReadItem(p, req.Key)
	if !ok {
		// Evicted-and-dropped in the same instant: nothing replicable; the
		// key is now a legal miss everywhere.
		return resp
	}
	if r.gen != gen || r.state(req.Key).epoch != was {
		// A write of the key landed here while the post-image was being read
		// back (or the node died under the command) and replaced what the
		// command stored: it completes as overwritten, with nothing to forward.
		return resp
	}
	fwd := r.open(req.Key, version{value: value, size: size, flags: flags, expire: expireSeconds(r.env.Now(), expireAt)})
	if !fwd.proxy {
		// The local copy was applied by Handle; record it like a SET, in the
		// instant its epoch is minted (the sends suspend), so a prior tombstone
		// or suspicion on the key cannot outlive it.
		r.landed(req.Key, &fwd.version)
	}
	r.sendWrite(p, fwd)
	if !r.await(p, fwd) {
		resp.Status = protocol.StatusNoReplica
		resp.Value, resp.ValueSize = nil, 0
	}
	return resp
}

// refusal answers req with a bare status, the store not consulted.
func refusal(req *protocol.Request, st protocol.Status) *protocol.Response {
	return &protocol.Response{Op: protocol.OpResponse, ReqID: req.ReqID, Status: st}
}

// expireSeconds converts an absolute expiry back to the wire's relative
// seconds, rounding up so a nearly-expired item does not become immortal.
func expireSeconds(now, expireAt sim.Time) uint32 {
	if expireAt == 0 {
		return 0
	}
	remaining := expireAt - now
	if remaining <= 0 {
		return 1
	}
	secs := uint32(remaining / sim.Second)
	if secs == 0 {
		secs = 1
	}
	return secs
}

// syncPull confirms a suspect key against its peer replicas: the first
// peer pushing a confirmed copy (any epoch ≥ 1) clears the suspicion; if
// every peer answers "don't have it" the local recovered value is dropped
// (a miss is always legal; serving an unconfirmable resurrected value is
// not) and the request runs against the key as it now is, absent: a GET
// misses, an RMW is decided on a key that does not exist. Returns false on
// timeout, and when the pull concluded with the key still suspect.
func (r *Replicator) syncPull(p *sim.Proc, key string, ks *keyState, peers *peerSet) bool {
	if peers.n == 0 {
		// Degenerate single-replica set: nobody can confirm; keep serving
		// the recovered value as the unreplicated system would.
		r.setState(key, ks, ks.epoch, ks.del, false, ks.sum)
		return true
	}
	return r.waitPull(p, ks, r.openPull(p, key, ks, peers, "repair-pulls")) && (!ks.suspect || ks.gone)
}

// openPull asks every one of peers for its confirmed copy of key and returns
// the event that fires when the pull concludes: a confirmed write of the key
// lands (landed), or every peer asked holds none (handlePullMiss). A key has
// one pull at a time — a suspect confirmation, a corrupt read's background
// repair and a migration double-read that coincide share it, with all their
// readers — so with one open this only returns its event. counter names what
// a newly opened round is counted as.
func (r *Replicator) openPull(p *sim.Proc, key string, ks *keyState, peers *peerSet, counter string) *sim.Event {
	if ks.pull != nil {
		return ks.pull
	}
	ev := r.env.NewEvent()
	ks.pull, ks.pullFrom = ev, make(map[int]bool, peers.n)
	for i := 0; i < peers.n; i++ {
		pid := int(peers.ids[i])
		ks.pullFrom[pid] = true
		r.send(p, pid, &frame{Kind: framePull, Key: key})
	}
	r.Counters.Add(counter, 1)
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
	for _, ks := range r.keys {
		ks.gone = true
	}
	r.dropDigests()
	r.keys = make(map[string]*keyState)
	r.fwds = make(map[uint64]*Forward)
	r.migPulls = make(map[int]*segPull)
}

// OnColdRecovery marks every cold-recovered key suspect: the SSD resurrects
// values, but the epoch table proving their freshness died with the node,
// so each must be re-confirmed against a peer before it is served. The
// server calls this at the end of the recovery scan, before accepting
// requests again.
func (r *Replicator) OnColdRecovery(keys []string) {
	for _, key := range keys {
		ks := r.state(key)
		r.setState(key, ks, 0, false, true, 0)
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
func (r *Replicator) OnCorrupt(p *sim.Proc, key string) {
	r.Counters.Add("corrupt-local-reads", 1)
	ks := r.state(key)
	r.setState(key, ks, ks.epoch, ks.del, true, ks.sum)
	peers, member := r.replicaPeers(key)
	if !member || peers.n == 0 {
		return
	}
	r.openPull(p, key, ks, &peers, "repair-pulls")
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
		if qp := r.qpByQPN[c.QPN]; qp != nil {
			qp.PostRecv(verbs.RecvWR{})
		}
		if f, ok := c.Payload.(*frame); ok && !r.isDown() { // a dead node neither applies nor acks
			r.demux(f)
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
func (r *Replicator) demux(f *frame) {
	switch {
	case f.Kind == frameAck:
		r.handleAck(f)
	case f.Kind == frameWrite && !f.Repair:
		r.applyQ.TryPut(queued{f, r.gen})
	default:
		r.backQ.TryPut(queued{f, r.gen})
	}
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
// microsecond before a crash is neither applied nor acked after it.
func (r *Replicator) lane(q *sim.Queue[queued]) func(*sim.Proc) {
	return func(p *sim.Proc) {
		for {
			if it, _ := q.Get(p); it.gen == r.gen && !r.isDown() {
				r.handle(p, it.f)
			}
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
// checksum — does to the key's record as it stands at this instant.
func (r *Replicator) judge(f *frame, sum uint64) verdict {
	ks := r.state(f.Key)
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
		diverged := f.Repair && !f.del && !ks.del &&
			sum != ks.sum &&
			winsSameEpoch(f.From, r.cfg.ID, f.epoch)
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
	if !f.del {
		// The one recompute on the receiving side: it verifies the frame, and
		// the epoch record takes it if the write applies.
		if v.sum = protocol.ValueSum(f.value); f.sum != 0 && v.sum != f.sum {
			// The frame's value no longer matches the checksum the sender
			// stamped: it was corrupted in flight. Reject silently — never
			// apply, never ack — and let the coordinator's resend rounds (or
			// anti-entropy) deliver a clean copy.
			r.Counters.Add("corrupt-frames-rejected", 1)
			return
		}
	}
	var how verdict
	st := r.install(p, f.Key, &v, func() bool {
		how = r.judge(f, v.sum)
		return how >= lands
	})
	if how == repairs && applied(st) {
		r.Counters.Add("scrub-corruptions-repaired", 1)
	}
	if f.Repair {
		return
	}
	switch {
	case how == stale:
		// Tell the coordinator the newer epoch.
		r.send(p, f.From, &frame{Kind: frameAck, ID: f.ID, Key: f.Key, version: version{epoch: r.state(f.Key).epoch}})
	case how == duplicate || applied(st):
		r.send(p, f.From, &frame{Kind: frameAck, ID: f.ID, Key: f.Key, Applied: true, version: version{epoch: f.epoch}})
	}
	// Otherwise the store refused (recovering, allocation failure): stay
	// silent; the coordinator's resend rounds (or anti-entropy) will retry
	// once we can apply.
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
func (r *Replicator) pushKey(p *sim.Proc, pid int, key string) {
	for {
		ks := r.keys[key]
		if !ks.confirmed() {
			r.send(p, pid, &frame{Kind: framePullMiss, Key: key})
			return
		}
		v := version{epoch: ks.epoch, del: ks.del}
		if !v.del {
			value, size, flags, expireAt, ok := r.st.ReadItem(p, key)
			if r.keys[key] != ks || ks.confirmedEpoch() != v.epoch || ks.del {
				continue
			}
			if !ok {
				// The slab layer dropped the value (eviction under pressure): stop
				// claiming the epoch in digests; a peer's copy can repair us later.
				r.dropState(key)
				r.send(p, pid, &frame{Kind: framePullMiss, Key: key})
				return
			}
			v.value, v.size, v.flags, v.sum = value, size, flags, protocol.ValueSum(value)
			v.expire = expireSeconds(r.env.Now(), expireAt)
		}
		r.Counters.Add("repair-pushes", 1)
		r.send(p, pid, &frame{Kind: frameWrite, Repair: true, Key: key, version: v})
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
	ks := r.keys[f.Key]
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
		r.Counters.Add("suspect-drops", 1)
	}
	ks.closePull()
}

// handleProbe is the read-repair rendezvous: a replica that served a GET
// tells us the record it served, and we reconcile against it — behind, we ask
// it to push; ahead, we push our fresher copy back.
func (r *Replicator) handleProbe(p *sim.Proc, f *frame) {
	r.reconcile(p, f.From, KeyEpoch{Key: f.Key, Epoch: f.epoch, Del: f.del, Sum: f.sum})
}
