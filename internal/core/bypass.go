package core

import (
	"hybridkv/internal/metrics"
	"hybridkv/internal/pool"
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
//	slot READ — one READ of the key's home bucket (every way of it)
//	            answers the lookup from the way holding the key's digest —
//	            or, when no way does and the bucket counts keys spilled to
//	            their second-choice bucket, a second READ of the key's
//	            alternate (protocol.AltBucket) does —
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
// Verdicts the directory cannot turn into a value — no way holding the
// key's digest, SSD-resident — fall back to the ordinary RPC GET
// at once. Transient doubts — an odd (mid-mutation) seqlock version, version
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
type ReadPath uint8

const (
	// ReadAuto resolves via bypass when the client has it enabled
	// (Config.Bypass) and the connection's server publishes a directory;
	// otherwise plain RPC. The default.
	ReadAuto ReadPath = iota
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

// readWait parks a resolver until its READ completion is demuxed. A
// resolver has one READ in flight at a time, so the record lives in its
// resolution and is set up afresh for every READ.
type readWait struct {
	ev      sim.Event
	payload any // what the READ fetched
}

// bypassEligible reports whether this Issue, on path, should resolve via
// bypass.
func (c *Client) bypassEligible(op Op, path ReadPath) bool {
	return op.Code == protocol.OpGet && c.cfg.Bypass && path != ReadRPC
}

// resolution is one GET being resolved one-sided: the resolver process, the
// request's first attempt, the READs spent on it so far and the wait of the
// one in flight. The attempt is the resolution — off the wire, on the
// connection the GET was routed to — and that connection is the resolver's
// own: a hedge, a retransmit or the fallback may give the request another
// attempt on another connection at any suspension, and a resolver that asked
// the request where it stands would finish on a directory it never
// bootstrapped.
//
// The record comes off its client's free list (Client.resolutions) in
// startBypass, and its one holder is its resolver, which puts it back when it
// returns (release). It holds the attempt, not the request, until then: the
// resolver reads the request through att.req, which finish clears, so it
// never touches a request that has ended — and its caller may release. Its
// READ's entry in conn.readWaits takes no hold: the resolver deletes the
// entry when it stops waiting, or the demux engine does when it delivers, so
// no entry outlives the resolver. A completion that comes later finds no
// entry, whoever has the record by then.
type resolution struct {
	c      *Client
	p      *sim.Proc
	att    *attempt
	digest uint64
	reads  int      // READs posted for this GET
	bytes  int      // bytes they asked for
	wait   readWait // the READ in flight
	pool.Holds
}

// startBypass runs the resolution as its own process so Issue keeps
// iset/iget semantics (return once the operation is in flight). The
// resolution waits in c.resolving for the resolver spawned with it:
// processes start in spawn order, so each resolver takes the oldest waiting
// GET — its own — and any resolver would do, since they are all alike. The
// resolution holds the request's first attempt until its resolver returns.
func (c *Client) startBypass(req *Req) {
	att := req.cur
	att.hold()
	r := c.resolutions.Get()
	r.c, r.att, r.digest = c, att, protocol.KeyDigest(req.Key())
	c.resolving.TryPut(r)
	c.env.Spawn("client/bypass", c.resolver)
}

// resolveNext is a bypass resolver process: it resolves the oldest GET
// waiting for one, or hands it to the RPC path.
func (c *Client) resolveNext(p *sim.Proc) {
	r, _ := c.resolving.TryGet()
	defer r.release()
	defer r.att.tagPanic()
	r.p = p
	if !r.resolve() {
		r.fallback()
	}
}

// release ends the resolution: it gives back its hold on the attempt, and
// the record goes back on its client's free list, zeroed.
func (r *resolution) release() {
	c, att := r.c, r.att
	if pool.Drop(r) {
		c.resolutions.Put(r)
	}
	att.drop()
}

// ended reports whether the GET has ended: answered here, or by racing
// guard, hedge or cancel machinery.
func (r *resolution) ended() bool { return r.att.req == nil }

// resolve attempts one-sided resolution; true means the request needs no
// fallback (completed via bypass, or already completed by racing
// guard/cancel machinery).
func (r *resolution) resolve() bool {
	cn, key := r.att.cn, r.att.wire.Key
	if cn.dir == nil && !r.c.bootstrapDir(r.p, cn) {
		return r.ended()
	}
	if r.ended() {
		return true
	}

	// An out-of-line value resolved before: one READ of the cached segment
	// location, validated by the digest the segment embeds.
	if loc, ok := cn.locs[key]; ok {
		if r.readSegment(loc, 0) == probeResolved {
			return true
		}
		delete(cn.locs, key) // superseded: the cached location is dead
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

// read hands one signaled one-sided READ to the resolver's connection's read
// engine and blocks until its completion arrives via the demux engine, in
// r.wait — or until bypassReadTimeout, when it reports !ok. No flow-control
// credit is consumed: the server never buffers anything for a READ.
func (r *resolution) read(mr int, off int64, n int) (payload any, ok bool) {
	r.reads++
	r.bytes += n
	cn, w := r.att.cn, &r.wait
	cn.c.nextID++
	id := cn.c.nextID
	w.ev.Init()
	cn.readWaits[id] = r
	cn.readq.TryPut(verbs.SendWR{
		WRID: id, Op: verbs.OpRead, Size: n,
		RemoteMR: mr, RemoteOff: off, Signaled: true,
	})
	if !r.p.WaitTimeout(&w.ev, bypassReadTimeout) {
		delete(cn.readWaits, id)
		return nil, false
	}
	payload, w.payload = w.payload, nil // the record must not pin the slot it was answered from
	return payload, true
}

// probeOutcome is what one READ (or slot-then-segment pair) came to.
type probeOutcome int

const (
	probeResolved  probeOutcome = iota // request completed (bypass, or raced done)
	probeFallback                      // the directory has no value to give: ask the server
	probeTransient                     // mutation window observed: worth READing the slot again
)

// probeSlot READs the key's home bucket — and its alternate, when the home
// lacks the key but counts spills — and acts on the verdict of the way
// holding the key's digest.
func (r *resolution) probeSlot() probeOutcome {
	dir := r.att.cn.dir
	home := int(r.digest % uint64(dir.Buckets))
	bucket, out, ok := r.readBucket(home)
	if !ok {
		return out
	}
	slot, found := bucket.Way(r.digest)
	if !found && bucket.Spill > 0 {
		if bucket, out, ok = r.readBucket(protocol.AltBucket(home, r.digest, dir.Buckets)); !ok {
			return out
		}
		slot, found = bucket.Way(r.digest)
	}
	if !found || slot.Kind == protocol.DirOnSSD {
		// No way holds the key (empty, or colliding keys' slots), or it is
		// SSD-resident: resolve via RPC.
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
	r.complete(&protocol.DirSegment{
		ValueSize: slot.ValueSize, Flags: slot.Flags, CAS: slot.CAS, Value: slot.Value,
	})
	return probeResolved
}

// readBucket READs directory bucket b and copies out its ways and spill
// count. ok is false when the probe stops there, with out: the request ended
// meanwhile (resolved), or the READ brought no bucket back — wedged, so the
// guarded RPC path copes (fallback).
func (r *resolution) readBucket(b int) (bucket protocol.DirBucket, out probeOutcome, ok bool) {
	dir := r.att.cn.dir
	n := dir.BucketBytes()
	got, read := r.read(dir.DirMR, int64(b)*int64(n), n)
	held, isBucket := got.(*protocol.DirBucket)
	if isBucket {
		bucket = held.Copy()
	}
	verbs.Release(got)
	if r.ended() {
		return bucket, probeResolved, false
	}
	return bucket, probeFallback, read && isBucket
}

// readSegment READs the value segment at loc and completes the request from
// it if it is the key's live snapshot — at the slot's version when the slot
// named it (version != 0), at any committed version when the location came
// from the cache. An empty or foreign READ is transient: the segment was
// superseded after its location was learned.
func (r *resolution) readSegment(loc locEntry, version uint64) probeOutcome {
	cn := r.att.cn
	got, ok := r.read(cn.dir.ValMR, loc.off, loc.n)
	var seg protocol.DirSegment
	held, isSeg := got.(*protocol.DirSegment)
	if isSeg {
		seg = held.Copy()
	}
	verbs.Release(got)
	if r.ended() {
		return probeResolved
	}
	if !ok {
		return probeFallback
	}
	if !isSeg || seg.Digest != r.digest || (version != 0 && seg.Version != version) {
		return probeTransient
	}
	if version != 0 {
		cn.locs[r.att.wire.Key] = loc // the next GET of this key starts here
	}
	r.complete(&seg)
	return probeResolved
}

// complete lands a validated value in the request and books what the hit
// cost.
func (r *resolution) complete(seg *protocol.DirSegment) {
	c, p := r.c, r.p
	p.Sleep(sim.TransferTime(seg.ValueSize, sim.MemcpyBps))
	if r.ended() {
		return
	}
	req := r.att.req
	req.bypassed = true
	c.Counters.Inc(metrics.CBypassHits)
	c.Counters.Add(metrics.CBypassHitReads, int64(r.reads))
	c.Counters.Add(metrics.CBypassHitReadBytes, int64(r.bytes))
	if r.reads == 1 {
		c.Counters.Inc(metrics.CBypassFastPath)
	}
	r.att.settle(answered) // the resolution is the request's first attempt
	req.finish(completed, &protocol.Response{
		Status: protocol.StatusOK, Value: seg.Value, ValueSize: seg.ValueSize, Flags: seg.Flags, CAS: seg.CAS,
	})
}

// fallback hands the request to the ordinary RPC path after a failed
// resolution. The guard/hedge machinery attached at Issue time keeps
// working unchanged: the RPC attempt registered here is just the request's
// next attempt.
func (r *resolution) fallback() {
	c, p := r.c, r.p
	c.Counters.Inc(metrics.CBypassFallbacks)
	if r.ended() {
		return
	}
	p.Sleep(prepCost)
	if r.ended() {
		return
	}
	// Stays on the resolving connection unless that one has browned out and
	// a healthy replica's RPC path exists.
	req := r.att.req
	cn := c.route(req.Key(), routeFallback, r.att.cn)
	c.enqueueWire(req, cn)
}

// bootstrapDir learns cn's directory geometry with a single-flight
// OpDirQuery RPC. A server that has answered "no directory" is not asked
// again.
func (c *Client) bootstrapDir(p *sim.Proc, cn *conn) bool {
	for cn.dirFetch != nil {
		// Another resolver's bootstrap is in flight: share its outcome.
		p.Wait(cn.dirFetch)
	}
	switch cn.dirState {
	case dirReady:
		return true
	case dirNone:
		return false
	}
	cn.dirFetch = c.env.NewEvent()
	defer func() {
		ev := cn.dirFetch
		cn.dirFetch = nil
		ev.Fire()
	}()
	c.Counters.Inc(metrics.CBypassBootstraps)
	switch c.queryDir(p, cn, "") {
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
// connection. key, when not empty, is a GET resolved one-sided that the
// server is to count as read heat. It returns the answer's status:
// StatusNotFound when the server publishes no directory, StatusError when no
// answer came in time. The query is a request like any other: its record
// comes off the free list and goes back when it is answered.
func (c *Client) queryDir(p *sim.Proc, cn *conn, key string) protocol.Status {
	// A control op: it addresses the server, so nothing routes it, whatever
	// key it carries.
	req := c.newReq()
	defer c.Release(req)
	c.initReq(req, Op{Code: protocol.OpDirQuery, Key: key}, false)
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

// readEngine sweeps queued bypass READs onto the QP: a lone READ posts as
// before (one doorbell), but when concurrent resolvers — a zipf read burst
// probing co-resident hot slots — have stacked a backlog, the whole window
// posts as one linked WR chain under a single doorbell, reusing the
// doorbell-batching idea the TX engine applies to request frames.
func (cn *conn) readEngine(p *sim.Proc) {
	c := cn.c
	for {
		wr, _ := cn.readq.Get(p)
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
		r := cn.readWaits[comp.WRID]
		if r == nil {
			verbs.Release(comp.Payload) // resolver gave up on this READ
			continue
		}
		delete(cn.readWaits, comp.WRID)
		r.wait.payload = comp.Payload
		r.wait.ev.Fire()
	}
}
