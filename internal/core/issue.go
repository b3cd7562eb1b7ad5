package core

import (
	"math/rand"

	"hybridkv/internal/metrics"
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
// compare-and-set, Delta for Incr/Decr).
type Op struct {
	Code      protocol.Opcode
	Key       string
	ValueSize int
	Value     any
	Flags     uint32
	Expire    uint32
	CAS       uint64
	Delta     uint64
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

// issueOpts is the parsed form of Issue's options; it lives inside the Req
// (Req.opts), where the request's helper processes read it.
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
// an operation went is Req.Err.
func (c *Client) Issue(p *sim.Proc, op Op, opts ...IssueOption) (*Req, error) {
	// The options are parsed straight into the handle they belong to: a
	// local issueOpts would escape through the option funcs and be a second
	// allocation on every operation.
	req := new(Req)
	for _, fn := range opts {
		fn(&req.opts)
	}
	in := intentOf(op.Code)
	if req.opts.forCAS {
		in = routeWrite
	}
	return c.beginOn(p, c.route(op.Key, in, nil), op, req), nil
}

// beginOn starts op on cn — the connection Issue routed it to, or the one a
// key-less operation addresses (flush_all) — as req, a handle that is zero
// but for its parsed options, and returns it. This is the one place that asks
// which transport the client is on, and the one place that asks whether it is
// buffering (SetBuffering): a buffered Set is queued and complete on return,
// and a Get pushes the queue out ahead of itself.
func (c *Client) beginOn(p *sim.Proc, cn *conn, op Op, req *Req) *Req {
	if c.cfg.Transport == IPoIB {
		switch {
		case c.buffering && op.Code == protocol.OpSet:
			return c.bufferSet(p, cn, op, req)
		case c.buffering && op.Code == protocol.OpGet:
			// The queued Sets leave on this connection before the Get does.
			c.flushConn(p, cn)
		}
		return c.ipoibExchange(p, cn, op, req)
	}
	o := &req.opts
	if op.Code == protocol.OpGet && !o.forCAS {
		c.maybeRefreshHot(cn)
	}
	p.Sleep(prepCost)
	c.initReq(req, op)
	if c.bypassEligible(op, o) {
		// Server-bypass resolution: no wire request yet — the resolver
		// process posts one-sided READs, completing the request itself or
		// handing it to enqueueWire as an ordinary RPC fallback. The
		// guard/hedge machinery below attaches identically either way.
		req.attach(cn, attOffWire)
		c.startBypass(req)
	} else {
		c.enqueueWire(req, cn)
	}
	c.Issued++
	if o.deadline > 0 || o.retry != nil {
		c.startGuard(req)
	}
	if o.hedge > 0 && op.Code == protocol.OpGet && len(c.conns) > 1 {
		// With health tracking live the threshold adapts to the measured
		// healthy baseline (see hedgeAfter); otherwise it is taken as given.
		c.startHedge(req, c.hedgeAfter(o.hedge))
	}
	// Inside an explicit batch window nothing is on the wire yet, so
	// WithBufferAck cannot block here; the buffers become reusable after
	// Flush (see BeginBatch).
	if o.ack && c.batching == 0 {
		p.Wait(&req.reusable)
	}
	return req
}

// attach makes req's next attempt — on cn, standing at state — and chains it
// to the ones before. The first attempt lives in the Req and goes by the
// request's id; every later one — a retransmit, a hedge, a bypass fallback —
// is its own allocation under a fresh id, because the earlier ones may still
// be pending, queued or on the wire. Its message is the template initReq
// wrote, but for the id.
func (req *Req) attach(cn *conn, state attState) *attempt {
	att, wire := &req.first, req.first.wire
	wire.ReqID = req.ID
	if req.cur != nil {
		att = new(attempt)
		req.cur.next = att
		req.c.nextID++
		wire.ReqID = req.c.nextID
	}
	*att = attempt{id: wire.ReqID, req: req, cn: cn, start: req.c.env.Now(), state: state, wire: wire}
	req.cur, req.conn = att, cn
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
// c.Issued: retransmits are attempts, not operations.
func (c *Client) enqueueWire(req *Req, cn *conn) {
	if req.done.Fired() {
		return
	}
	first := req.cur == nil
	att := req.attach(cn, attQueued)
	att.wire.RespMR = cn.respMR.LKey()
	cn.pending[att.id] = att
	if first && c.batching > 0 && att.wire.Op != protocol.OpDirQuery {
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
// fallback joined, may well not be — and fires the completion flag and the
// buffer-reusable event. It is the only place done fires, and it is
// idempotent: the first of a response, a deadline and a cancel wins.
func (req *Req) finish(how outcome, resp *protocol.Response) {
	if req.done.Fired() {
		return
	}
	c := req.c
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
		c.Completed++
	case timedOut:
		c.Faults.Inc(metrics.CTimeouts)
		end = req.lapse()
	case canceled:
		c.Faults.Inc(metrics.CCancels)
	}
	req.CompletedAt = c.env.Now()
	for att := &req.first; att != nil; att = att.next {
		att.settle(end)
	}
	req.done.Fire()
	req.reusable.Fire()
}

// Cancel abandons an in-flight request: it completes immediately with
// ErrCanceled, and whatever its attempts hold is given back. Canceling a
// completed request is a no-op.
func (c *Client) Cancel(req *Req) { req.finish(canceled, nil) }

// retransmit gives up on the current attempt and enqueues a fresh one, on the
// next connection when failing over.
func (c *Client) retransmit(p *sim.Proc, req *Req, failover bool) {
	old := req.cur
	old.settle(req.lapse())
	cn := old.cn
	if failover && len(c.conns) > 1 {
		cn = c.route(req.Key, routeNext, old.cn)
		c.Faults.Inc(metrics.CFailovers)
	}
	if req.acked {
		// A self-guarded write chasing its lost final response.
		c.Faults.Inc(metrics.CAckedRetries)
	}
	c.Faults.Inc(metrics.CRetries)
	p.Sleep(prepCost)
	// Fresh nudge per attempt: a recovering/busy rejection of the old
	// attempt must not short-circuit the new one's response wait, and its
	// sentinel and backoff hint belong to the old attempt alone.
	req.nudge.Init(c.env)
	req.rejected = nil
	req.retryAfter = 0
	c.enqueueWire(req, cn)
}

// awaitOutcome blocks up to d for the request to complete, returning true if
// it did. A recovering nudge for the current attempt ends the wait early and
// returns false: the server rejected the attempt, so there is no response to
// keep waiting for — the guard proceeds straight to backoff and retransmit.
func (c *Client) awaitOutcome(p *sim.Proc, req *Req, d sim.Time) bool {
	if !req.nudge.Fired() {
		// The timeout wakeup is canceled on delivery, so a guard that never
		// needs it leaves nothing scheduled behind — the instrumentation is
		// invisible to the run's virtual end time.
		p.WaitTimeout(c.env.AnyOf(&req.done, &req.nudge), d)
	}
	return req.done.Fired()
}

// startGuard starts the watchdog process for a request issued with a
// deadline and/or retry policy.
func (c *Client) startGuard(req *Req) {
	c.env.Go("client/guard", func(p *sim.Proc) {
		defer req.tagPanic()
		o := &req.opts
		var deadline sim.Time
		if o.deadline > 0 {
			deadline = req.IssuedAt + o.deadline
		}
		if o.retry == nil {
			if !p.WaitTimeout(&req.done, deadline-p.Now()) {
				req.finish(timedOut, nil)
			}
			return
		}
		pol := *o.retry
		pol.fill()
		rng := rand.New(rand.NewSource(pol.Seed ^ int64(req.ID)*0x9e3779b9))
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
				d += sim.Time(float64(backoff) * pol.Jitter * rng.Float64())
			}
			if req.retryAfter > d {
				// The server's busy hint floors the backoff: it knows its
				// own storage backlog better than our doubling schedule.
				d = req.retryAfter
			}
			backoff *= 2
			if backoff > pol.MaxBackoff {
				backoff = pol.MaxBackoff
			}
			// Back off as a wait-on-done: a response landing during the
			// backoff window ends the guard without a spurious retransmit.
			if p.WaitTimeout(&req.done, d) {
				return
			}
			if past() {
				break
			}
			c.retransmit(p, req, pol.Failover)
		}
		req.finish(timedOut, nil)
	})
}

// startHedge starts the hedging process for a GET issued with WithHedge:
// if the request is still unanswered after the threshold, the GET is
// mirrored to the next connection route offers as an extra attempt —
// without abandoning the primary, so the first response (either server)
// completes the request; finish settles the other, whose answer then finds
// nothing and is absorbed as stale.
func (c *Client) startHedge(req *Req, after sim.Time) {
	c.env.Go("client/hedge", func(p *sim.Proc) {
		defer req.tagPanic()
		if p.WaitTimeout(&req.done, after) || req.done.Fired() {
			if req.bypassed {
				// The GET already resolved on the bypass path; the hedge
				// would have mirrored an answered read to another server.
				c.Faults.Inc(metrics.CHedgesSuppressed)
			}
			return
		}
		cn := c.route(req.Key, routeNext, req.conn)
		if cn == req.conn {
			return // no distinct replica to hedge onto
		}
		c.Faults.Inc(metrics.CHedges)
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
type attempt struct {
	id    uint64
	req   *Req
	cn    *conn
	start sim.Time // enqueue time, for per-attempt service-time samples
	// batch is non-nil once this attempt was coalesced into a doorbell batch:
	// the whole frame left under one credit, which the shared record tracks.
	batch *txBatch
	// next chains the request's attempts in the order attach made them: a
	// hedge or a fallback leaves an earlier one flying beside the one it adds.
	next  *attempt
	state attState
	// wire is the request message this attempt sends. The TX engine posts a
	// pointer to it and the server reads it there, so it is complete before
	// the attempt is queued and never written after.
	wire protocol.Request
}

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
func (att *attempt) settle(how ending) {
	cn := att.cn
	switch att.state {
	case attSettled:
		return
	case attSent:
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
				delete(cn.pendingBatch, b.id)
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
	delete(cn.pending, att.id)
	att.state = attSettled
	switch how {
	case answered:
		cn.noteSuccess()
		// The attempt's service time feeds the health tracker; a rejection's
		// does not (a fast rejection is not fast service). Bypass resolutions
		// are their own class: one-sided READs never touch the server CPU, so
		// their tail degrades with the fabric and the host memory system.
		class, ok := classOfOp(att.req.Op)
		if att.req.bypassed {
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
	att.req.reusable.Fire()
}

// lapse is how an attempt still outstanding ends when the guard stops
// waiting for it: silent — it got no answer at all, a timeout the breaker
// counts alongside busy rejections — unless a retryable rejection is what cut
// the wait short.
func (req *Req) lapse() ending {
	if req.rejected != nil {
		return dropped
	}
	return silent
}

// txEngine drains the issue queue: takes a flow-control credit, posts the
// WR, and fires the request's buffer-reusable event when the data has left
// the NIC (red path of Figure 3). What it dequeues is a frame — a bare
// attempt is a frame of one — and every frame leaves under one credit.
//
// When a credit is free the engine sends one op per doorbell, exactly as
// before batching existed. Only when credits are exhausted — the moment the
// per-op cost actually hurts — does it block for one credit and then sweep
// everything that queued up behind the attempt into a single coalesced
// BatchFrame. Explicit Flush frames arrive pre-built and leave as they are.
func (cn *conn) txEngine(p *sim.Proc) {
	for {
		item, ok := cn.txq.Get(p)
		if !ok {
			return
		}
		one := [1]*attempt{item.att}
		items := item.frame
		if items == nil {
			items = one[:]
		}
		items, waited := cn.takeCredit(p, items)
		if len(items) == 0 {
			continue
		}
		var alone []*attempt
		if waited && item.frame == nil && items[0].frameable() {
			items, alone = cn.drainBatch(items[0])
		}
		cn.post(p, items)
		// What the sweep left out of the frame goes alone, one credit each.
		for _, att := range alone {
			one[0] = att
			if items, _ := cn.takeCredit(p, one[:]); len(items) == 1 {
				cn.post(p, items)
			}
		}
	}
}

// takeCredit takes the one flow-control credit items will leave under,
// blocking while none is free (waited reports that it did). Abandoned members
// are dropped on the way — before the wait and again after it — and if
// nothing is left to send the credit goes straight back.
func (cn *conn) takeCredit(p *sim.Proc, items []*attempt) (live []*attempt, waited bool) {
	if items = cn.liveItems(items); len(items) == 0 || cn.credits.TryAcquire() {
		return items, false
	}
	cn.credits.Acquire(p)
	if items = cn.liveItems(items); len(items) == 0 {
		cn.credits.Release()
	}
	return items, true
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
	att.state = attSent
	cn.c.Sends++
	sent := cn.qp.PostSendReusable(p, verbs.SendWR{
		WRID:    att.id,
		Op:      verbs.OpSend,
		Size:    att.wire.WireSize(),
		Payload: &att.wire,
	})
	// The NIC serializes messages in order; waiting for DMA-sent here
	// pipelines exactly like the hardware send queue.
	p.Wait(sent)
	att.req.reusable.Fire()
}

// progressEngine polls the receive CQ: returns credits, lands values in the
// user buffer, and fires completion flags (dark-green path of Figure 3).
// A response or an ack that finds no pending entry — a duplicate, or one for
// an attempt that ended first: given up on, outrun, its request timed out or
// canceled — is absorbed as stale.
func (cn *conn) progressEngine(p *sim.Proc) {
	for {
		comp := cn.recvCQ.WaitPoll(p)
		cn.qp.PostRecv(verbs.RecvWR{}) // replenish the local pool
		resp, ok := comp.Payload.(*protocol.Response)
		if !ok {
			panic("core: non-response payload on client receive CQ")
		}
		if b := cn.pendingBatch[resp.ReqID]; b != nil && resp.Op == protocol.OpBufferAck {
			// One ack covers the whole coalesced frame: the first member
			// still flying brings the shared credit back.
			for _, att := range b.members {
				att.ack()
			}
			continue
		}
		att := cn.pending[resp.ReqID]
		if att == nil {
			cn.c.Faults.Inc(metrics.CStaleResponses)
			continue
		}
		req := att.req
		switch resp.Op {
		case protocol.OpBufferAck:
			att.ack()
		case protocol.OpResponse:
			how, nudging := answered, RetryableStatus(resp.Status) && req.opts.retry != nil
			switch {
			case resp.Status == protocol.StatusBusy:
				// Shed at admission: breaker food, unlike recovering — a
				// recovering server is rebuilding, not saturated.
				how = refused
				cn.c.Faults.Inc(metrics.CBusy)
			case nudging:
				how = rejected
			}
			att.settle(how)
			if !nudging {
				req.finish(completed, resp)
				continue
			}
			// Fail-fast rejection — cold-restart recovery or admission
			// shedding: don't complete the request. Record the attempt's
			// sentinel and any retry-after hint, then nudge its guard, which
			// backs off and retransmits (failing over when configured).
			req.rejected = statusErr(resp.Status)
			switch resp.Status {
			case protocol.StatusBusy:
				req.retryAfter = sim.Time(resp.RetryAfterUS) * sim.Microsecond
			case protocol.StatusNoReplica:
				// The coordinator itself is healthy (it answered); the
				// chain behind it is not. No breaker food, just a counter.
				cn.c.Faults.Inc(metrics.CNoReplica)
			default:
				cn.c.Faults.Inc(metrics.CRecovering)
			}
			req.nudge.Fire()
		default:
			panic("core: unexpected opcode " + resp.Op.String())
		}
	}
}
