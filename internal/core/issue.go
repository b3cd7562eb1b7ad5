package core

import (
	"math/rand"

	"hybridkv/internal/metrics"
	"hybridkv/internal/pool"
	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
	"hybridkv/internal/verbs"
)

// This file is the unified issue path: one descriptor-based entry point
// (Client.Issue) with functional options for buffer-ack, deadline, and
// retry behaviour, plus the recovery machinery behind it — the guard's
// idempotency-aware retransmission with connection failover, the hedge — and
// the request's whole lifecycle in three functions (DESIGN.md §20): attach
// gives a request an attempt, attempt.settle is the one way an attempt ends,
// Req.finish the one way a request does.

// Op describes one operation for Issue. Code and Key are required; the
// remaining fields apply per-opcode (ValueSize/Value for stores, CAS for
// compare-and-set, Delta for Incr).
type Op struct {
	Code      protocol.Opcode
	Key       string
	ValueSize int
	Value     any
	Flags     uint32
	CAS       uint64
	Delta     uint64
	// hash is FNV1a(Key): Issue hashes the key once, and the request's
	// message carries the hash to every table and ring the key meets.
	hash uint64
}

// RetryPolicy governs retransmission of an unanswered request.
//
// Retries are idempotency-aware: Gets retransmit freely, but a store is
// retransmitted only while the client has no evidence the server holds it —
// once a BufferAck arrives, the attempt is left to its deadline. Each
// retransmitted attempt gets a fresh request id; late responses to the old
// id are absorbed as stale.
type RetryPolicy struct {
	// MaxAttempts bounds total attempts, including the first (default 3).
	MaxAttempts int
	// AttemptTimeout is the per-attempt response budget (default 50 µs).
	AttemptTimeout sim.Time
	// Backoff is the delay before the first retransmit; it doubles per
	// attempt (default 5 µs).
	Backoff sim.Time
	// MaxBackoff caps the doubling (default 1 ms).
	MaxBackoff sim.Time
	// Jitter is the random fraction of backoff added per retry to spread
	// retransmit storms (0 → default 0.2; negative disables).
	Jitter float64
	// Seed drives the jitter RNG (mixed with the request id, so every
	// request jitters differently but deterministically).
	Seed int64
	// Failover moves each retransmit to the next connection in the pool —
	// for replicated or cache-semantics deployments where a miss on the
	// fallback server beats blocking on a dead one.
	Failover bool
}

func (rp *RetryPolicy) fill() {
	if rp.MaxAttempts <= 0 {
		rp.MaxAttempts = 3
	}
	if rp.AttemptTimeout <= 0 {
		rp.AttemptTimeout = 50 * sim.Microsecond
	}
	if rp.Backoff <= 0 {
		rp.Backoff = 5 * sim.Microsecond
	}
	if rp.MaxBackoff <= 0 {
		rp.MaxBackoff = sim.Millisecond
	}
	if rp.Jitter == 0 {
		rp.Jitter = 0.2
	}
}

// IssueOption customizes one Issue call.
type IssueOption func(*issueOpts)

// issueOpts is the parsed form of Issue's options. Issue parses them into
// its client's one scratch record (Client.opts) and reads them there before
// it first suspends; what outlives Issue is carried elsewhere: the buffer-ack
// wish in the wire message (AckWanted), the deadline and the retry policy in
// the guard's closure, and whether there is a policy on the request's first
// attempt (attempt.retrying).
type issueOpts struct {
	ack      bool
	forCAS   bool     // the GET behind Gets; see casRead
	readPath ReadPath // GET resolution path; see WithReadPath
	deadline sim.Time // budget from issue time; 0 = none
	hedge    sim.Time // GET hedging threshold; 0 = none
	// retry is non-nil for a request issued under WithRetry: a retryable
	// rejection (StatusRecovering, StatusBusy) then nudges its guard instead
	// of completing the request.
	retry *RetryPolicy
}

// WithBufferAck requests a server BufferAck and blocks Issue until the
// key/value buffers are reusable (bset/bget semantics).
func WithBufferAck() IssueOption {
	return func(o *issueOpts) { o.ack = true }
}

// WithDeadline gives the request a completion budget of d virtual time from
// issue. If no response arrives in time the request completes locally with
// ErrDeadlineExceeded and its flow-control credit is reclaimed.
func WithDeadline(d sim.Time) IssueOption {
	return func(o *issueOpts) { o.deadline = d }
}

// WithRetry attaches a retransmission policy (see RetryPolicy). Combine
// with WithDeadline to bound the total time across all attempts.
func WithRetry(rp RetryPolicy) IssueOption {
	return func(o *issueOpts) { o.retry = &rp }
}

// WithHedge mirrors a GET to the next server in its routing order if no
// response arrived within d: first answer wins, the loser is absorbed as a
// stale response. Tames tail latency when one replica is saturated, at the
// cost of duplicate load. GET-only (hedging a store would double-apply it)
// and a no-op on single-connection clients.
func WithHedge(d sim.Time) IssueOption {
	return func(o *issueOpts) { o.hedge = d }
}

// casRead marks the GET behind Gets. Its CAS token goes back in a
// CompareAndSet, and tokens are per-store counters the chain does not
// replicate — one fetched from a backup never matches the primary's. So the
// read routes as the write will (primary first, no hot fan-out, no brown-out
// detour) and takes the RPC path.
func casRead(o *issueOpts) {
	o.forCAS = true
	o.readPath = ReadRPC
}

// Issue starts one operation described by op, applying the given options,
// and returns its handle: the one way an operation starts, on either
// transport. On RDMA the request is in flight when Issue returns; the socket
// stack has no non-blocking send, so on IPoIB it is already complete (Wait
// returns at once, Err agrees with Status). The error is always nil: it
// stands where memcached_iset/iget return their memcached_return_t, and how
// an operation went is Req.Err. The caller holds the handle until it hands
// it back with Release, once done and read.
func (c *Client) Issue(p *sim.Proc, op Op, opts ...IssueOption) (*Req, error) {
	// The options are parsed into the client's scratch record — a local
	// issueOpts would escape through the option funcs and be an allocation on
	// every operation — and copied out before the first suspension, after
	// which another of the client's processes may parse into it.
	req := c.newReq()
	c.opts = issueOpts{}
	for _, fn := range opts {
		fn(&c.opts)
	}
	o := c.opts
	in := intentOf(op.Code)
	if o.forCAS {
		in = routeWrite
	}
	k := protocol.KeyOf(op.Key)
	op.hash = k.Hash
	cn := c.route(k, in, nil)
	// This is the one place that asks which transport the client is on, and
	// the one place that asks whether it is buffering (SetBuffering): a
	// buffered Set is queued and complete on return, and a Get pushes the
	// queue out ahead of itself.
	if c.cfg.Transport == IPoIB {
		switch {
		case c.buffering && op.Code == protocol.OpSet:
			return c.bufferSet(p, cn, op, req, o.ack), nil
		case c.buffering && op.Code == protocol.OpGet:
			// The queued Sets leave on this connection before the Get does.
			c.flushConn(p, cn)
		}
		return c.ipoibExchange(p, cn, op, req, o.deadline, o.retry), nil
	}
	p.Sleep(prepCost)
	c.initReq(req, op, o.ack)
	req.cur.retrying = o.retry != nil
	bypass := c.bypassEligible(op, o.readPath)
	if bypass {
		// Server-bypass resolution: no wire request yet — the resolver
		// process posts one-sided READs, completing the request itself or
		// handing it to enqueueWire as an ordinary RPC fallback. The
		// guard/hedge machinery below attaches identically either way.
		req.attach(cn, attOffWire)
		c.startBypass(req)
	} else {
		c.enqueueWire(req, cn)
	}
	if op.Code == protocol.OpGet && !o.forCAS && c.cfg.Bypass {
		// The GET is on its way first; a refresh it ticks follows it. Its key
		// rides the refresh only when the server will not see the GET.
		var sample protocol.Key
		if bypass {
			sample = k
		}
		c.tickHeat(cn, sample)
	}
	c.Counters.Inc(metrics.CIssued)
	if o.deadline > 0 || o.retry != nil {
		deadline := sim.Time(0)
		if o.deadline > 0 {
			deadline = req.IssuedAt + o.deadline
		}
		c.startGuard(req, deadline, o.retry)
	}
	if o.hedge > 0 && op.Code == protocol.OpGet && len(c.conns) > 1 {
		// With health tracking live the threshold adapts to the measured
		// healthy baseline (see hedgeAfter); otherwise it is taken as given.
		c.startHedge(req, c.hedgeAfter(o.hedge))
	}
	// Inside an explicit batch window nothing is on the wire yet, so
	// WithBufferAck cannot block here; the buffers become reusable after
	// Flush (see BeginBatch).
	if o.ack && !c.batching {
		p.Wait(&req.first().reusable)
	}
	return req, nil
}

// attach places req's next attempt on cn, standing at state, and makes it the
// latest. The first is the one initReq took, and goes by the request's id;
// every later one — a retransmit, a hedge, a bypass fallback — comes off the
// client's list under a fresh id, because the earlier ones may still be
// pending, queued or on the wire, and joins the ring behind the latest. Its
// message is the latest's, but for the id; so is its busy hint.
func (req *Req) attach(cn *conn, state attState) *attempt {
	att := req.cur
	if req.Attempts > 0 {
		c := cn.c
		att = c.attempts.Get()
		c.nextID++
		att.req, att.wire, att.retryAfterUS = req, req.cur.wire, req.cur.retryAfterUS
		att.wire.ReqID = c.nextID
		att.next, req.cur.next = req.cur.next, att
	}
	att.cn, att.start, att.state = cn, cn.c.env.Now(), state
	req.cur = att
	req.Attempts++
	if cn.brk != nil {
		cn.brk.claim(att)
	}
	return att
}

// enqueueWire registers one more attempt of req on cn and hands it to cn's TX
// engine — or parks it in the connection's batch window when one is open
// (first attempts only: retransmits always go straight out, a stalled window
// must not delay recovery; and never the key-less control op, which no frame
// may carry — see frameable). A request that ended while the attempt was
// being prepared gets none: nothing would ever settle it. It does not touch
// metrics.CIssued: retransmits are attempts, not operations. The window or
// the queue holds the attempt until the TX engine has posted it or dropped
// it (post, liveItems).
func (c *Client) enqueueWire(req *Req, cn *conn) {
	if req.done {
		return
	}
	first := req.Attempts == 0
	att := req.attach(cn, attQueued)
	att.wire.RespMR = cn.respMR.LKey()
	cn.pending[att.wire.ReqID] = att
	att.hold()
	if first && c.batching && att.wire.Op != protocol.OpDirQuery {
		cn.window = append(cn.window, att)
	} else {
		cn.txq.TryPut(txItem{att: att})
	}
}

// mayRetry reports whether retransmitting req is safe: Gets always; a
// mutating opcode while the server has not acknowledged holding it; and
// self-guarded mutations (CAS, Add) even after the ack. A retransmitted
// CAS cannot re-apply — the original's apply consumed the token — and a
// retransmitted Add cannot either, because the key now exists; the worst
// outcome is a definite Exists rejection. That definite outcome is the
// point: without it, a BufferAck whose final response the network dropped
// would strand the client at its deadline even though the write is safely
// applied, which reads exactly like buffered work being lost.
func mayRetry(req *Req) bool {
	switch req.Op {
	case protocol.OpGet, protocol.OpCAS, protocol.OpAdd:
		return true
	}
	return !req.acked
}

// outcome is how a request ended.
type outcome uint8

const (
	completed outcome = iota // an answer landed: a response, a bypass hit
	timedOut                 // its deadline, its retry budget or a WaitTimeout ran out
	canceled                 // Cancel
)

// finish ends the request: it lands the answer (resp, for completed), stamps
// and counts the completion, settles every attempt still outstanding — the
// one that answered is settled already; a hedge, or the attempt a hedge or a
// fallback joined, may well not be — sets the completion flag and fires the
// request's events on its first attempt, and lets go of its attempts. It is
// the only place done is set, and it is idempotent: the first of a response, a
// deadline and a cancel wins.
func (req *Req) finish(how outcome, resp *protocol.Response) {
	if req.done {
		return
	}
	first, last := req.first(), req.cur
	c := last.cn.c
	req.how = how
	req.Status = protocol.StatusError
	end := dropped
	switch how {
	case completed:
		// Zero-copy: the value was RDMA-WRITten directly into the request's
		// registered response buffer (or READ out of the server's directory);
		// no client copy.
		req.Status = resp.Status
		req.Value = resp.Value
		req.ValueSize = resp.ValueSize
		req.Flags = resp.Flags
		req.CAS = resp.CAS
		c.Counters.Inc(metrics.CCompleted)
	case timedOut:
		c.Counters.Inc(metrics.CTimeouts)
		end = req.lapse()
	case canceled:
		c.Counters.Inc(metrics.CCancels)
	}
	req.CompletedAt = c.env.Now()
	for att := first; ; att = att.next {
		att.settle(end)
		if att == last {
			break
		}
	}
	req.done = true
	// Firing done wakes whoever waits for the request, and hands back the
	// wakeup a WaitAny that another request woke left there. Nothing waits on
	// the nudge now but a guard the completion flag has woken, and firing it
	// hands that wait's wakeup back: none stays on the attempt when it goes
	// back to the client's list, zeroed.
	first.done.Fire()
	first.reusable.Fire()
	first.nudge.Fire()
	req.letGo(first, last)
}

// letGo ends the ring of attempts from first to last: each forgets its
// request and its neighbour, and gives back the hold the ring held it by.
// From here on the request points into no attempt and no attempt points at
// it; whatever still holds one of them — the TX queue, a frame's member
// list, a server still reading a message, a breaker's probe slot, a bypass
// resolution — reads only the attempt.
func (req *Req) letGo(first, last *attempt) {
	req.cur = nil
	for att := first; ; {
		next, end := att.next, att == last
		att.req, att.next = nil, nil
		att.drop()
		if end {
			return
		}
		att = next
	}
}

// Cancel abandons an in-flight request: it completes immediately with
// ErrCanceled, and whatever its attempts hold is given back. Canceling a
// completed request is a no-op.
func (c *Client) Cancel(req *Req) { req.finish(canceled, nil) }

// retransmit gives up on the current attempt and enqueues a fresh one, on the
// next connection when failing over. The guard calls it when its backoff has
// run out, and the request may have ended at that very instant, ordered
// before the guard's wakeup — a cancel, a caller's WaitTimeout, a response —
// so the guard passes the key and the latest connection it saw, and the
// latest attempt, while there is one, names the connection instead. The
// request may also end while the new attempt is prepared. Either way the
// decision is counted all the same, and nothing is sent.
func (c *Client) retransmit(p *sim.Proc, req *Req, k protocol.Key, cn *conn, failover bool) {
	old := req.cur
	if old != nil {
		cn = old.cn
		old.settle(req.lapse())
	}
	if failover && len(c.conns) > 1 {
		cn = c.route(k, routeNext, cn)
		c.Counters.Inc(metrics.CFailovers)
	}
	c.Counters.Inc(metrics.CRetries)
	p.Sleep(prepCost)
	req.rejected = protocol.StatusOK
	if req.done {
		return
	}
	// In flight now, so in flight when the guard called: old is set.
	// Fresh nudge per attempt: a recovering/busy rejection of the old
	// attempt must not short-circuit the new one's response wait, and its
	// sentinel and backoff hint belong to the old attempt alone. Only the
	// guard, running here, waits on the nudge, so firing it first hands back
	// the wakeups its earlier waits left there.
	nudge := &req.first().nudge
	nudge.Fire()
	nudge.Init()
	old.retryAfterUS = 0
	c.enqueueWire(req, cn)
}

// awaitOutcome blocks up to d for the request to complete, returning true if
// it did. A recovering nudge for the current attempt ends the wait early and
// returns false: the server rejected the attempt, so there is no response to
// keep waiting for — the guard proceeds straight to backoff and retransmit.
func (c *Client) awaitOutcome(p *sim.Proc, req *Req, d sim.Time) bool {
	if req.done {
		return true
	}
	if first := req.first(); !first.nudge.Fired() {
		// The timeout wakeup is canceled on delivery, so a guard that never
		// needs it leaves nothing scheduled behind — the instrumentation is
		// invisible to the run's virtual end time.
		p.WaitEither(&first.done, &first.nudge, d)
	}
	return req.done
}

// startGuard starts the watchdog process for a request issued with a
// deadline (the virtual time it runs out at; 0 for none) and/or a retry
// policy (nil for none). Both live in the guard's closure alone: a request
// that ended before the guard starts needs neither. So do the first
// attempt's id and key, which outlive the attempt: the jitter seed and a
// panic's tag read them.
func (c *Client) startGuard(req *Req, deadline sim.Time, retry *RetryPolicy) {
	req.hold()
	id, key := req.first().wire.ReqID, req.first().wire.Key
	c.env.Spawn("client/guard", func(p *sim.Proc) {
		defer req.drop(c)
		defer func() { retag(recover(), id, req.Op, key) }()
		if retry == nil || req.done {
			if !p.WaitTimeout(req.event(), deadline-p.Now()) {
				req.finish(timedOut, nil)
			}
			return
		}
		pol := *retry
		pol.fill()
		var rng *rand.Rand // built at the first jittered backoff: most policies never jitter
		backoff := pol.Backoff
		// The loop is left two ways: the request completed under it (return),
		// or its time or its attempts ran out (the one timeout below).
		past := func() bool { return deadline > 0 && p.Now() >= deadline }
		for !past() {
			wait := pol.AttemptTimeout
			if deadline > 0 && deadline-p.Now() < wait {
				wait = deadline - p.Now()
			}
			if c.awaitOutcome(p, req, wait) {
				return
			}
			if past() || req.Attempts >= pol.MaxAttempts || !mayRetry(req) {
				break
			}
			d := backoff
			if pol.Jitter > 0 {
				if rng == nil {
					rng = rand.New(rand.NewSource(pol.Seed ^ int64(id)*0x9e3779b9))
				}
				d += sim.Time(float64(backoff) * pol.Jitter * rng.Float64())
			}
			// The request is in flight here, and may not be after the
			// backoff: the retransmit routes the key from the connection
			// its latest attempt went on.
			k, cn := req.cur.wire.HKey(), req.cur.cn
			if hint := sim.Time(req.cur.retryAfterUS) * sim.Microsecond; hint > d {
				// The server's busy hint floors the backoff: it knows its
				// own storage backlog better than our doubling schedule.
				d = hint
			}
			backoff *= 2
			if backoff > pol.MaxBackoff {
				backoff = pol.MaxBackoff
			}
			// Back off as a wait-on-done: a response landing during the
			// backoff window ends the guard without a spurious retransmit.
			if p.WaitTimeout(req.event(), d) {
				return
			}
			if past() {
				break
			}
			c.retransmit(p, req, k, cn, pol.Failover)
		}
		req.finish(timedOut, nil)
	})
}

// startHedge starts the hedging process for a GET issued with WithHedge:
// if the request is still unanswered after the threshold, the GET is
// mirrored to the next connection route offers as an extra attempt —
// without abandoning the primary, so the first response (either server)
// completes the request; finish settles the other, whose answer then finds
// nothing and is absorbed as stale. The request is in flight when the hedge
// routes, so its latest attempt names the key and the connection to leave
// out; the hedge keeps the first attempt's id and key for a panic's tag.
func (c *Client) startHedge(req *Req, after sim.Time) {
	req.hold()
	id, key := req.first().wire.ReqID, req.first().wire.Key
	c.env.Spawn("client/hedge", func(p *sim.Proc) {
		defer req.drop(c)
		defer func() { retag(recover(), id, req.Op, key) }()
		if p.WaitTimeout(req.event(), after) || req.done {
			if req.bypassed {
				// The GET already resolved on the bypass path; the hedge
				// would have mirrored an answered read to another server.
				c.Counters.Inc(metrics.CHedgesSuppressed)
			}
			return
		}
		on := req.cur.cn
		cn := c.route(req.cur.wire.HKey(), routeNext, on)
		if cn == on {
			return // no distinct replica to hedge onto
		}
		c.Counters.Inc(metrics.CHedges)
		p.Sleep(prepCost)
		c.enqueueWire(req, cn)
	})
}

// txItem is what the TX engine dequeues, by value: one attempt — or, when
// frame is set, a pre-built explicit batch window handed over by Flush.
type txItem struct {
	att   *attempt
	frame []*attempt
}

// attempt is one transmission of a request, wire message included. Retries
// create fresh attempts with fresh ids. What an attempt holds at any moment
// follows from its state, and settle is the one place any of it is given back.
//
// Attempts come off their client's free list (Client.attempts, DESIGN §16):
// initReq takes a request's first, attach every later one, each holding the
// hold of the request's ring, which finish gives back. Whoever else may
// touch an attempt holds it too while it may: the TX queue or batch window
// until the TX engine has posted or dropped it, a frame's member list until
// its last slot is given back, the server reading its message from post until
// the attempt is answered (one that ended unanswered keeps that hold on
// Client.kept until its late answer lands, for good if none does), a
// half-open breaker's probe slot, and a bypass GET's
// resolution. Its pending entry takes none: settle deletes it, and finish
// settles every attempt before the ring lets go. The last drop puts it back,
// zeroed. A holder reads the request through req only while it is in flight:
// finish clears req on every attempt it lets go of.
type attempt struct {
	req   *Req // nil once the request has ended
	cn    *conn
	start sim.Time // enqueue time, for per-attempt service-time samples
	// batch is non-nil once this attempt was coalesced into a doorbell batch:
	// the whole frame left under one credit, which the shared record tracks.
	batch *txBatch
	// next rings the request's attempts in the order attach made them, the
	// latest's leading back to the first: a hedge or a fallback leaves an
	// earlier one flying beside the one it adds.
	next  *attempt
	state attState
	// retrying is set on the request's first attempt when it was issued
	// under WithRetry: land then hands a retryable rejection to its guard,
	// which keeps the policy itself.
	retrying bool
	// retryAfterUS is the request's busy hint, in µs, while this attempt is
	// its latest: the last RetryAfterUS a busy response to any of its
	// attempts carried, which floors the guard's next backoff. attach
	// carries it on to the next attempt, and retransmit clears it on the
	// attempt it gives up first, so a retransmit starts without it. It sits
	// in the padding after state.
	retryAfterUS uint32
	// wire is the request message this attempt sends. The TX engine posts a
	// pointer to it and the server reads it there, so it is complete before
	// the attempt is queued and never written after.
	wire protocol.Request
	// reusable, nudge and done are the request's events on its first
	// attempt (Req.first) and unused on the others: reusable fires when the
	// request's buffers are reusable — at the DMA-sent of any of its
	// attempts, at a BufferAck, at finish — nudge wakes its guard when an
	// attempt is rejected as retryable (recovering/busy), and retransmit
	// re-arms it; done is where waits for the request's completion park
	// while it is in flight (Req.event), and finish fires it.
	reusable sim.Event
	nudge    sim.Event
	done     sim.Event
	pool.Holds
}

// hold adds one holder of the attempt; holding a free one panics.
func (att *attempt) hold() { pool.Hold(att) }

// drop gives back one hold; the last one puts the attempt back on its
// client's free list, zeroed.
func (att *attempt) drop() {
	if pool.Drop(att) {
		att.cn.c.attempts.Put(att)
	}
}

// buffersFree fires the buffer-reusable event of att's request once att's
// message has left the NIC or the server has acknowledged holding it —
// unless the request has ended meanwhile: finish fired it then, and let go
// of att.
func (att *attempt) buffersFree() {
	if req := att.req; req != nil {
		req.first().reusable.Fire()
	}
}

// tagPanic re-raises a panic in a process that holds the request's first
// attempt rather than the request, the bypass resolver, through retag with
// the attempt's wire id, opcode and key.
func (att *attempt) tagPanic() { retag(recover(), att.wire.ReqID, att.wire.Op, att.wire.Key) }

// attState is where an attempt stands, which is what it holds.
type attState uint8

const (
	// attSettled holds nothing: the zero attempt, and any attempt once ended.
	attSettled attState = iota
	// attOffWire is outstanding but was never registered on its connection —
	// a bypass resolution, a socket exchange: no pending entry, no credit.
	attOffWire
	// attQueued has its pending entry and waits for the TX engine, parked in
	// a batch window or in the issue queue: no credit yet.
	attQueued
	// attSent is on the wire under a credit: its own, or — batch set — its
	// frame's, in which it also holds one slot.
	attSent
	// attAcked was sent alone and BufferAck'ed: the credit is back, the
	// response still to come.
	attAcked
)

// ending is how an attempt ended — or, for acked, that the server has taken
// it and it has not. The order matters: up to refused the server was heard.
type ending uint8

const (
	acked    ending = iota // BufferAck: the credit comes back, nothing else moves
	answered               // its response completes the request: success, and a service-time sample
	rejected               // its response is a retryable rejection handed to the guard: the server is up, success
	refused                // its response is a busy shed: breaker food
	silent                 // nothing came in the time it was given: breaker food
	dropped                // the request ended without it — canceled, outrun, never sent: no verdict
)

// settle ends the attempt, giving back what it holds: the flow-control
// credit, the frame slot, the pending entry, the probe slot, and — its verdict
// on the connection — the breaker's answer and the health tracker's sample.
// It is the only place any of those is given back, and it is idempotent: an
// attempt ends once, whoever gets there first. Nothing of a settled attempt
// stays on the connection, so what the server still sends for it — a late
// response, a late BufferAck — finds no entry and counts as stale.
//
// An attempt that was sent and is answered — with a value, a rejection or a
// shed — gives back the hold its message took at post: the server has done
// with it. One that ends any other way keeps it on Client.kept: the server
// may still read the message, so the attempt is not reused until its late
// answer lands (land), and never if none comes.
func (att *attempt) settle(how ending) {
	if att.state == attSettled {
		return
	}
	cn := att.cn
	req := att.req
	posted := att.state >= attSent // its message holds the attempt
	heard := posted && how > acked && how <= refused
	if att.state == attSent {
		// A bare attempt's credit comes back however it ends. A frame's one
		// credit comes back when the server is first heard from about any
		// member — the batch ack, the first response — or with the last slot.
		b := att.batch
		release := b == nil
		if b != nil {
			if how != acked {
				b.live--
			}
			if b.live == 0 {
				b.drop()
			}
			release = (how <= refused || b.live == 0) && !b.creditReturned
			b.creditReturned = b.creditReturned || release
		} else if how == acked {
			att.state = attAcked
		}
		if release {
			cn.credits.Release()
		}
	}
	if how == acked {
		return
	}
	delete(cn.pending, att.wire.ReqID)
	att.state = attSettled
	switch how {
	case answered:
		cn.noteSuccess()
		// The attempt's service time feeds the health tracker; a rejection's
		// does not (a fast rejection is not fast service). Bypass resolutions
		// are their own class: one-sided READs never touch the server CPU, so
		// their tail degrades with the fabric and the host memory system.
		class, ok := classOfOp(req.Op)
		if req.bypassed {
			class = hcBypass
		}
		if ok {
			cn.c.noteServiceTime(cn, class, cn.c.env.Now()-att.start)
		}
	case rejected:
		cn.noteSuccess()
	case refused, silent:
		cn.noteFailure()
	case dropped:
		if cn.brk != nil {
			cn.brk.release(att)
		}
	}
	if heard {
		att.drop()
	} else if posted {
		cn.c.kept[att.wire.ReqID] = att // the server may still read the message
	}
}

// ack is the server's word that it holds the attempt's request — its own
// BufferAck, or its frame's: the credit comes back, the buffers are reusable,
// and a store is no longer retransmitted (mayRetry). An attempt that ended
// first hears nothing.
func (att *attempt) ack() {
	if att.state == attSettled {
		return
	}
	att.settle(acked)
	att.req.acked = true
	att.buffersFree()
}

// lapse is how an attempt still outstanding ends when the guard stops
// waiting for it: silent — it got no answer at all, a timeout the breaker
// counts alongside busy rejections — unless a retryable rejection is what cut
// the wait short.
func (req *Req) lapse() ending {
	if req.rejected != protocol.StatusOK {
		return dropped
	}
	return silent
}

// txEngine drains the issue queue: takes a flow-control credit, posts the
// WR, and fires the request's buffer-reusable event when the data has left
// the NIC (red path of Figure 3). What it dequeues is a frame — a bare
// attempt is a frame of one, an explicit Flush frame arrives pre-built — and
// every frame leaves as it is, under one credit.
func (cn *conn) txEngine(p *sim.Proc) {
	for {
		item, _ := cn.txq.Get(p)
		one := [1]*attempt{item.att}
		items := item.frame
		if items == nil {
			items = one[:]
		}
		if items = cn.takeCredit(p, items); len(items) > 0 {
			cn.post(p, items)
		}
	}
}

// takeCredit takes the one flow-control credit items will leave under,
// blocking while none is free. Abandoned members are dropped on the way —
// before the wait and again after it — and if nothing is left to send the
// credit goes straight back.
func (cn *conn) takeCredit(p *sim.Proc, items []*attempt) (live []*attempt) {
	if items = cn.liveItems(items); len(items) == 0 || cn.credits.TryAcquire() {
		return items
	}
	cn.credits.Acquire(p)
	if items = cn.liveItems(items); len(items) == 0 {
		cn.credits.Release()
	}
	return items
}

// post sends items under the credit the caller holds: a single-op doorbell
// for a frame of one (one that shrank to one included), a coalesced
// BatchFrame otherwise.
func (cn *conn) post(p *sim.Proc, items []*attempt) {
	if len(items) > 1 {
		cn.postBatch(p, items)
		return
	}
	att := items[0]
	att.sent()
	cn.c.Counters.Inc(metrics.CSends)
	sent := cn.qp.PostSend(p, verbs.SendWR{
		Op:      verbs.OpSend,
		Size:    att.wire.WireSize(),
		Payload: &att.wire,
	})
	// The NIC serializes messages in order; waiting for DMA-sent here
	// pipelines exactly like the hardware send queue.
	p.Wait(sent)
	att.buffersFree()
	att.drop() // the queue's hold
}

// sent marks the attempt as on the wire. The server reads its message in
// the attempt from now on: it takes a hold that settle gives back once the
// attempt is answered.
func (att *attempt) sent() {
	att.state = attSent
	att.hold()
}

// progress is the progress engine, the receive CQ's completion handler:
// it returns credits, lands values in the user buffer, and fires completion
// flags (dark-green path of Figure 3). Each delivery holds its reply until
// it has landed: land copies out everything it keeps, and the release hands
// the reply back to the server's free list once its sender has let go of it
// too.
func (cn *conn) progress(comp verbs.Completion) {
	cn.qp.PostRecv(verbs.RecvWR{}) // replenish the local pool
	resp, ok := comp.Payload.(*protocol.Response)
	if !ok {
		panic("core: non-response payload on client receive CQ")
	}
	cn.land(resp)
	resp.Release()
}

// land acts on one response or BufferAck without suspending. One that finds
// no pending entry — a duplicate, or one for an attempt that ended first:
// given up on, outrun, its request timed out or canceled — is absorbed as
// stale; a response among them hands a kept attempt back to the client.
func (cn *conn) land(resp *protocol.Response) {
	if b := cn.pendingBatch[resp.ReqID]; b != nil && resp.Op == protocol.OpBufferAck {
		// One ack covers the whole coalesced frame: the first member
		// still flying brings the shared credit back.
		for _, att := range b.members {
			att.ack()
		}
		return
	}
	att := cn.pending[resp.ReqID]
	if att == nil {
		cn.c.Counters.Inc(metrics.CStaleResponses)
		if kept := cn.c.kept[resp.ReqID]; kept != nil && resp.Op == protocol.OpResponse {
			// The late answer of a message its attempt ended without: the
			// server has done reading it, so the attempt goes back.
			delete(cn.c.kept, resp.ReqID)
			kept.drop()
		}
		return
	}
	req := att.req
	switch resp.Op {
	case protocol.OpBufferAck:
		att.ack()
	case protocol.OpResponse:
		how, nudging := answered, RetryableStatus(resp.Status) && req.first().retrying
		switch {
		case resp.Status == protocol.StatusBusy:
			// Shed at admission: breaker food, unlike recovering — a
			// recovering server is rebuilding, not saturated.
			how = refused
			cn.c.Counters.Inc(metrics.CBusy)
		case nudging:
			how = rejected
		}
		att.settle(how)
		if !nudging {
			req.finish(completed, resp)
			return
		}
		// Fail-fast rejection — cold-restart recovery or admission
		// shedding: don't complete the request. Record the attempt's
		// sentinel and any retry-after hint, then nudge its guard, which
		// backs off and retransmits (failing over when configured).
		req.rejected = resp.Status
		switch resp.Status {
		case protocol.StatusBusy:
			req.cur.retryAfterUS = resp.RetryAfterUS
		case protocol.StatusNoReplica:
			// The coordinator itself is healthy (it answered); the
			// chain behind it is not. No breaker food, just a counter.
			cn.c.Counters.Inc(metrics.CNoReplica)
		default:
			cn.c.Counters.Inc(metrics.CRecovering)
		}
		req.first().nudge.Fire()
	default:
		panic("core: unexpected opcode " + resp.Op.String())
	}
}
