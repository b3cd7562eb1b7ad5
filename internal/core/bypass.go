package core

import (
	"hybridkv/internal/metrics"
	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
	"hybridkv/internal/verbs"
)

// This file is the client half of the server-bypass GET path: GET hits are
// resolved with one-sided RDMA READs against the server's published
// directory (see internal/store/directory.go) and never touch the server
// CPU. The resolution protocol:
//
//	bootstrap — one OpDirQuery RPC per connection learns the directory
//	            geometry (single-flight, cached for the connection's life).
//	slot READ — one READ of the key's directory slot answers the lookup
//	            with one of four verdicts: the value itself (it fits
//	            protocol.DirInlineMax and rides in the slot, under the
//	            slot's seqlock version), the offset of its snapshot segment
//	            in the value MR, "SSD-resident", or "not published here".
//	            A small-value hit is therefore one READ, on first touch and
//	            right after a SET alike, with no client state behind it.
//	segment   — an out-of-line value costs a second READ of the segment the
//	            slot names, validated digest+version. Its location is then
//	            cached, and the next GET of the key READs the segment
//	            directly: value offsets are never reused, so a live matching
//	            segment at the cached offset IS the key's current value, and
//	            a superseded one reads as emptiness and sends the resolver
//	            back to the slot.
//
// Verdicts the directory cannot turn into a value — empty slot, foreign
// digest, SSD-resident, expired — fall back to the ordinary RPC GET at
// once. Transient doubts — an odd (mid-mutation) seqlock version, version
// skew between slot and segment, a segment superseded between the two
// READs — mean a writer was mid-flight: the resolver READs the slot again
// (RFP-style self-verifying read) within a small budget before surrendering
// to RPC, since the mutation window is hundreds of nanoseconds while the
// fallback costs a full server round trip. Either way a racing SET,
// eviction, or crash can never produce a torn or stale-after-ack value.
// Bypass READs consume no flow-control credits (they are not requests the
// server must buffer); concurrent resolvers' READs are swept into a single
// doorbell-batched post by the connection's read engine, and completions
// arrive on the otherwise-idle send CQ, drained by a dedicated demux
// engine.

// ReadPath selects how a GET is resolved; see WithReadPath.
type ReadPath int

const (
	// ReadAuto resolves via bypass when the client has it enabled
	// (Config.Bypass) and the connection's server publishes a directory;
	// otherwise plain RPC. The default.
	ReadAuto ReadPath = iota
	// ReadBypass insists on attempting bypass resolution first, re-probing
	// the directory bootstrap even after a server reported none. Validation
	// failures still fall back to RPC — correctness is never negotiable.
	ReadBypass
	// ReadRPC forces the ordinary request/response path.
	ReadRPC
)

// WithReadPath selects the read path for one GET (see ReadPath). Non-GET
// opcodes ignore it: only reads have a one-sided resolution.
func WithReadPath(rp ReadPath) IssueOption {
	return func(o *issueOpts) { o.readPath = rp }
}

// Bootstrap / READ-completion budgets. Generous: they only bound how long a
// resolver can be wedged by a dead fabric before falling back to RPC (whose
// own guard machinery handles the dead server).
const (
	dirQueryTimeout   = 200 * sim.Microsecond
	bypassReadTimeout = 100 * sim.Microsecond
)

// bypassReprobes is how many transient seqlock doubts one resolution READs
// the slot again for before falling back to RPC.
const bypassReprobes = 1

// Directory bootstrap states, per connection.
const (
	dirUnknown = iota // never asked, or last ask failed retryably
	dirReady          // geometry cached in conn.dir
	dirNone           // server answered "no directory attached"
)

// locEntry caches the value-segment location of one key whose value is too
// large for the slot, so that a repeat GET costs one READ instead of two.
type locEntry struct {
	off int64
	n   int
}

// readWait parks one resolver until its READ completion is demuxed. A
// resolver has one READ in flight at a time, so the record lives in its Req
// and is set up afresh for every READ.
type readWait struct {
	ev      sim.Event
	payload any // what the READ fetched
}

// bypassEligible reports whether this Issue should resolve via bypass.
func (c *Client) bypassEligible(op Op, o *issueOpts) bool {
	if op.Code != protocol.OpGet || !c.cfg.Bypass {
		return false
	}
	switch o.readPath {
	case ReadRPC:
		return false
	case ReadBypass:
		return true
	}
	// One-sided READs never touch the server CPU, so its hot-key sketch is
	// blind to bypass read heat. Route a fixed 1-in-hotSampleEvery sample of
	// auto-path GETs through RPC: the sketch sees an unbiased thumbnail of
	// the read distribution at a bounded dispatch cost.
	c.hotSampleSeq++
	if c.hotSampleSeq%hotSampleEvery == 0 {
		c.Counters.Inc(metrics.CHotSamples)
		return false
	}
	return true
}

// resolution is one GET being resolved one-sided: the resolver process, the
// request, the connection it resolves on, and the READs spent on it so far.
// The connection is the resolver's own — that of the request's first attempt,
// which the resolution is: a hedge, a retransmit or the fallback may give the
// request another attempt on another connection at any suspension, and a
// resolver that asked the request where it stands would finish on a directory
// it never bootstrapped.
type resolution struct {
	c      *Client
	p      *sim.Proc
	req    *Req
	cn     *conn
	digest uint64
	reads  int // READs posted for this GET
	bytes  int // bytes they asked for
}

// startBypass runs the resolution as its own process so Issue keeps
// iset/iget semantics (return once the operation is in flight).
func (c *Client) startBypass(req *Req) {
	c.env.Spawn("client/bypass", func(p *sim.Proc) {
		defer req.tagPanic()
		r := resolution{c: c, p: p, req: req, cn: req.first.cn, digest: protocol.KeyDigest(req.Key)}
		if !r.resolve(req.opts.readPath == ReadBypass) {
			r.fallback()
		}
	})
}

// resolve attempts one-sided resolution; true means the request needs no
// fallback (completed via bypass, or already completed by racing
// guard/cancel machinery).
func (r *resolution) resolve(force bool) bool {
	req, cn := r.req, r.cn
	if cn.dir == nil && !r.c.bootstrapDir(r.p, cn, force) {
		return req.done.Fired()
	}
	if req.done.Fired() {
		return true
	}

	// An out-of-line value resolved before: one READ of the cached segment
	// location, validated by the digest the segment embeds.
	if loc, ok := cn.locs[req.Key]; ok {
		if r.readSegment(loc, 0) == probeResolved {
			return true
		}
		delete(cn.locs, req.Key) // superseded: the cached location is dead
	}

	for reprobes := 0; ; reprobes++ {
		switch r.probeSlot() {
		case probeResolved:
			return true
		case probeFallback:
			return false
		}
		if reprobes >= bypassReprobes {
			return false
		}
		r.c.Counters.Inc(metrics.CBypassReprobes)
	}
}

// read posts one READ on the resolver's connection and waits for it.
func (r *resolution) read(mr int, off int64, n int) (payload any, ok bool) {
	r.reads++
	r.bytes += n
	return r.cn.postRead(r.p, &r.req.read, mr, off, n)
}

// probeOutcome is what one READ (or slot-then-segment pair) came to.
type probeOutcome int

const (
	probeResolved  probeOutcome = iota // request completed (bypass, or raced done)
	probeFallback                      // the directory has no value to give: ask the server
	probeTransient                     // mutation window observed: worth READing the slot again
)

// probeSlot READs the key's directory slot and acts on its verdict.
func (r *resolution) probeSlot() probeOutcome {
	dir := r.cn.dir
	n := dir.SlotBytes()
	b := int64(r.digest % uint64(dir.Buckets))
	got, ok := r.read(dir.DirMR, b*int64(n), n)
	if r.req.done.Fired() {
		return probeResolved
	}
	slot, isSlot := got.(protocol.DirSlot)
	if !ok || !isSlot || slot.Digest != r.digest || slot.Kind == protocol.DirOnSSD {
		// READ wedged (let the guarded RPC path cope), empty slot, a
		// colliding key's slot, or SSD-resident: resolve via RPC.
		return probeFallback
	}
	if slot.Version%2 == 1 {
		return probeTransient // seqlock held: a publish is in flight
	}
	if slot.Kind == protocol.DirAtOffset {
		return r.readSegment(locEntry{off: slot.Off, n: slot.Len}, slot.Version)
	}
	// Inline: the slot READ already moved the value, under the version just
	// checked.
	if segExpired(slot.ExpireAt, r.p.Now()) {
		return probeFallback
	}
	r.complete(&protocol.DirSegment{
		ValueSize: slot.ValueSize, Flags: slot.Flags, CAS: slot.CAS, Value: slot.Value,
	})
	return probeResolved
}

// readSegment READs the value segment at loc and completes the request from
// it if it is the key's live snapshot — at the slot's version when the slot
// named it (version != 0), at any committed version when the location came
// from the cache. An empty or foreign READ is transient: the segment was
// superseded after its location was learned.
func (r *resolution) readSegment(loc locEntry, version uint64) probeOutcome {
	cn := r.cn
	got, ok := r.read(cn.dir.ValMR, loc.off, loc.n)
	if r.req.done.Fired() {
		return probeResolved
	}
	if !ok {
		return probeFallback
	}
	seg, isSeg := got.(protocol.DirSegment)
	if !isSeg || seg.Digest != r.digest || (version != 0 && seg.Version != version) {
		return probeTransient
	}
	if segExpired(seg.ExpireAt, r.p.Now()) {
		return probeFallback
	}
	if version != 0 {
		cn.locs[r.req.Key] = loc // the next GET of this key starts here
	}
	r.complete(&seg)
	return probeResolved
}

func segExpired(expireAt int64, now sim.Time) bool {
	return expireAt != 0 && now >= sim.Time(expireAt)
}

// complete lands a validated value in the request and books what the hit
// cost.
func (r *resolution) complete(seg *protocol.DirSegment) {
	c, p, req := r.c, r.p, r.req
	p.Sleep(sim.TransferTime(seg.ValueSize, sim.MemcpyBps))
	if req.done.Fired() {
		return
	}
	req.bypassed = true
	c.Counters.Inc(metrics.CBypassHits)
	c.Counters.Add(metrics.CBypassHitReads, int64(r.reads))
	c.Counters.Add(metrics.CBypassHitReadBytes, int64(r.bytes))
	if r.reads == 1 {
		c.Counters.Inc(metrics.CBypassFastPath)
	}
	req.first.settle(answered) // the resolution is the request's first attempt
	req.finish(completed, &protocol.Response{
		Status: protocol.StatusOK, Value: seg.Value, ValueSize: seg.ValueSize, Flags: seg.Flags, CAS: seg.CAS,
	})
}

// fallback hands the request to the ordinary RPC path after a failed
// resolution. The guard/hedge machinery attached at Issue time keeps
// working unchanged: the RPC attempt registered here is just the request's
// next attempt.
func (r *resolution) fallback() {
	c, p, req := r.c, r.p, r.req
	c.Counters.Inc(metrics.CBypassFallbacks)
	if req.done.Fired() {
		return
	}
	p.Sleep(prepCost)
	if req.done.Fired() {
		return
	}
	// Stays on the resolving connection unless that one has browned out and
	// a healthy replica's RPC path exists.
	cn := c.route(req.Key, routeFallback, r.cn)
	c.enqueueWire(req, cn)
}

// bootstrapDir learns cn's directory geometry with a single-flight
// OpDirQuery RPC. force re-asks a server that previously reported no
// directory (ReadBypass semantics).
func (c *Client) bootstrapDir(p *sim.Proc, cn *conn, force bool) bool {
	for cn.dirFetch != nil {
		// Another resolver's bootstrap is in flight: share its outcome.
		p.Wait(cn.dirFetch)
	}
	switch cn.dirState {
	case dirReady:
		return true
	case dirNone:
		if !force {
			return false
		}
	}
	cn.dirFetch = c.env.NewEvent()
	defer func() {
		ev := cn.dirFetch
		cn.dirFetch = nil
		ev.Fire()
	}()
	c.Counters.Inc(metrics.CBypassBootstraps)
	switch c.queryDir(p, cn) {
	case protocol.StatusOK:
		cn.dirState = dirReady
		return true
	case protocol.StatusNotFound:
		// Definitive: no directory attached server-side.
		cn.dirState = dirNone
	}
	return false
}

// queryDir asks cn's server for its directory geometry, membership epoch
// and hot set with one OpDirQuery and installs the answer on the
// connection. It returns the answer's status: StatusNotFound when the server
// publishes no directory, StatusError when no answer came in time.
func (c *Client) queryDir(p *sim.Proc, cn *conn) protocol.Status {
	// A key-less control op: it addresses the server, so nothing routes it.
	req := new(Req)
	c.initReq(req, Op{Code: protocol.OpDirQuery})
	c.Counters.Inc(metrics.CIssued)
	c.enqueueWire(req, cn)
	if !p.WaitTimeout(&req.done, dirQueryTimeout) {
		req.finish(timedOut, nil)
	}
	if req.Status != protocol.StatusOK {
		return req.Status
	}
	info, ok := req.Value.(*protocol.DirectoryInfo)
	if !ok {
		return protocol.StatusNotFound
	}
	cn.dir = info
	c.noteMemberEpoch(cn, info)
	c.noteHot(cn, info)
	return protocol.StatusOK
}

// noteMemberEpoch applies a directory answer's membership epoch: seeing it
// advance past what this connection last observed drops the cached segment
// locations — placement learned under an older epoch must not steer
// one-sided READs. Clients with Config.Membership attached are normally
// invalidated by the subscription first; this is the wire-observable
// fallback.
func (c *Client) noteMemberEpoch(cn *conn, info *protocol.DirectoryInfo) {
	if info.MemberEpoch <= cn.memEpoch {
		return
	}
	cn.memEpoch = info.MemberEpoch
	clear(cn.locs)
	c.Counters.Inc(metrics.CEpochInvalidations)
}

// postRead hands one signaled one-sided READ to the connection's read
// engine and blocks until its completion arrives via the demux engine. No
// flow-control credit is consumed: the server never buffers anything for a
// READ.
func (cn *conn) postRead(p *sim.Proc, w *readWait, mr int, off int64, n int) (payload any, ok bool) {
	c := cn.c
	c.nextID++
	id := c.nextID
	w.ev.Init(c.env)
	cn.readWaits[id] = w
	cn.readq.TryPut(verbs.SendWR{
		WRID: id, Op: verbs.OpRead, Size: n,
		RemoteMR: mr, RemoteOff: off, Signaled: true,
	})
	if !p.WaitTimeout(&w.ev, bypassReadTimeout) {
		delete(cn.readWaits, id)
		return nil, false
	}
	payload, w.payload = w.payload, nil // the Req must not pin the slot it was answered from
	return payload, true
}

// readEngine sweeps queued bypass READs onto the QP: a lone READ posts as
// before (one doorbell), but when concurrent resolvers — a zipf read burst
// probing co-resident hot slots — have stacked a backlog, the whole window
// posts as one linked WR chain under a single doorbell, reusing the
// doorbell-batching idea the TX engine applies to request frames.
func (cn *conn) readEngine(p *sim.Proc) {
	c := cn.c
	for {
		wr, ok := cn.readq.Get(p)
		if !ok {
			return
		}
		wrs := append(cn.readWRs[:0], wr)
		for len(wrs) < MaxBatchOps {
			next, ok := cn.readq.TryGet()
			if !ok {
				break
			}
			wrs = append(wrs, next)
		}
		c.Counters.Inc(metrics.CBypassReadDoorbells)
		c.Counters.Add(metrics.CBypassReads, int64(len(wrs)))
		cn.qp.PostSendList(p, wrs)
		cn.readWRs = wrs // the chain is consumed by the post: reuse its backing array
	}
}

// bypassEngine demultiplexes READ completions from the connection's send
// CQ (requests are posted unsignaled, so bypass READs are its only
// traffic) to the resolvers parked on them. Spawned only on bypass-enabled
// clients.
func (cn *conn) bypassEngine(p *sim.Proc) {
	for {
		comp := cn.sendCQ.WaitPoll(p)
		w := cn.readWaits[comp.WRID]
		if w == nil {
			continue // resolver gave up on this READ
		}
		delete(cn.readWaits, comp.WRID)
		w.payload = comp.Payload
		w.ev.Fire()
	}
}
