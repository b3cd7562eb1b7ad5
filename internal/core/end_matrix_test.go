package core

import (
	"errors"
	"fmt"
	"testing"

	"hybridkv/internal/protocol"
	"hybridkv/internal/server"
	"hybridkv/internal/sim"
	"hybridkv/internal/simnet"
	"hybridkv/internal/store"
)

// TestRequestEndMatrix: every way a request ends × where the attempt it ends
// over stood when it did, one assertion list per cell once the run has
// drained — nothing left on any connection, done fired exactly once, every
// attempt settled, no probe slot stranded, the exact counters the ending
// moves, Err's sentinel. The row says how the request ends and which of its
// attempts the column places; the column arranges for that attempt to stand
// where it says — parked, queued, on the wire, acked, holding a breaker's
// half-open probe slot. A change to settle, finish, attach or the resolver
// should fail a cell here before it moves a registry record.

// The matrix's clock. The servers answer in a few microseconds; everything
// below is far enough apart that no two of them race.
const (
	endHedgeAt  = 20 * sim.Microsecond  // the hedge threshold
	endAttempt  = 50 * sim.Microsecond  // the retry rows' per-attempt timeout, the socket rows' too
	endCancelAt = 60 * sim.Microsecond  // when the cancel rows cancel
	endDeadline = 150 * sim.Microsecond // the deadline rows' budget
	endSlowBy   = 60 * sim.Microsecond  // a server slower than the hedge threshold
	endReadBy   = 20 * sim.Microsecond  // a fabric slow enough to hedge between two READs
	endLateBy   = 400 * sim.Microsecond // a server whose answer outlives the request
	endSettleBy = 2 * sim.Millisecond   // by when everything late has landed
	endCooldown = 100 * sim.Microsecond // the probe column's breaker
	endTrips    = 2
)

// shape is what the fabric does to one node's messages from when it is set:
// the first lose are lost, the next pass go through untouched (the BufferAck
// an acked column wants delivered), and the rest are lost (mute) or delayed
// (late).
type shape struct {
	lose, pass int
	mute       bool
	late       sim.Time
}

type shaper map[string]*shape

func (s shaper) Transmit(src, dst string, size int, now sim.Time) simnet.Verdict {
	sh := s[src]
	switch {
	case sh == nil:
		return simnet.Verdict{}
	case sh.lose > 0:
		sh.lose--
		return simnet.Verdict{Drop: true}
	case sh.pass > 0:
		sh.pass--
		return simnet.Verdict{}
	}
	return simnet.Verdict{Drop: sh.mute, ExtraDelay: sh.late}
}

// endCol is where the placed attempt stands when the request ends.
type endCol struct {
	name string
	// first: only a request's first attempt can stand here — a window parks
	// and frames first attempts, never a retransmit, a hedge or a fallback.
	first bool
	// sent: the attempt reaches the server (so a late answer to it exists).
	sent                         bool
	window, queued, frame, probe bool
	// ack: the attempt asks for a BufferAck and the fabric delivers it.
	ack bool
}

var endCols = []endCol{
	{name: "parked in a window", first: true, window: true},
	{name: "queued behind exhausted credits", queued: true},
	{name: "on the wire bare", sent: true},
	{name: "on the wire in a frame", first: true, sent: true, frame: true},
	{name: "buffer-acked alone", sent: true, ack: true},
	{name: "buffer-acked by its frame's ack", first: true, sent: true, frame: true, ack: true},
	{name: "holding a half-open probe slot", sent: true, probe: true},
}

// endRow is one way a request ends.
type endRow struct {
	name string
	// The rig: a socket client against one server, or a verbs client against
	// two — with bypass directories (bootstrapped by a hit on another key
	// before the cell's clock starts, unless cold), with bounded admission.
	ipoib, bypass, cold, overload bool
	// op is the subject operation (default: a GET of endKey, preloaded).
	op Op
	// Which of the request's attempts the column places: its first, unless
	// later — a hedge, a fallback — and on the key's home connection, unless
	// other — where a hedge or a failover goes.
	later, other bool
	// offWire: the placed attempt is a bypass resolution or a socket
	// exchange, which is never registered on its connection.
	offWire bool
	// heard: the ending needs the placed attempt to have reached the server.
	heard bool
	// noAck: the server refuses the attempt strictly before any ack.
	noAck bool
	// drive arms the fabric, issues the subject and sees it end.
	drive func(x *endCell, p *sim.Proc) *Req
	// ends is how the placed attempt ends; late, that its answer arrives
	// afterwards all the same (one stale response, if it was ever sent).
	ends ending
	late bool
	err  error
	// moved is every counter the ending moves, exactly (adjust: but for what
	// the column adds).
	moved  map[string]int64
	adjust func(x *endCell, moved map[string]int64)
	// unbuildable: why no cell of the row can be constructed.
	unbuildable string
}

const endKey = "k"

// endSocketRetry is the socket rows' budget: two resends, endAttempt apart.
var endSocketRetry = WithRetry(RetryPolicy{MaxAttempts: 3, AttemptTimeout: endAttempt})

func endGet(key string) Op { return Op{Code: protocol.OpGet, Key: key} }

var endRetry = RetryPolicy{MaxAttempts: 2, AttemptTimeout: endAttempt, Backoff: sim.Microsecond, Jitter: -1, Failover: true}

var endRows = []endRow{
	{
		name: "the first attempt's response", heard: true, ends: answered,
		drive: func(x *endCell, p *sim.Proc) *Req {
			return x.wait(p, x.issue(p))
		},
	},
	{
		name: "a retransmit's response, the first attempt silent", ends: silent, err: ErrNotFound,
		moved: map[string]int64{"retries": 1, "failovers": 1},
		drive: func(x *endCell, p *sim.Proc) *Req {
			x.shape(x.home, shape{mute: true})
			return x.wait(p, x.issue(p, WithRetry(endRetry)))
		},
	},
	{
		name: "a retransmit's response, the first attempt answering late", heard: true, ends: silent, late: true, err: ErrNotFound,
		moved: map[string]int64{"retries": 1, "failovers": 1},
		drive: func(x *endCell, p *sim.Proc) *Req {
			x.shape(x.home, shape{late: endLateBy})
			return x.wait(p, x.issue(p, WithRetry(endRetry)))
		},
	},
	{
		name: "a hedge's response, the primary silent", ends: dropped, err: ErrNotFound,
		moved: map[string]int64{"hedges": 1},
		drive: func(x *endCell, p *sim.Proc) *Req {
			x.shape(x.home, shape{mute: true})
			return x.wait(p, x.issue(p, WithHedge(endHedgeAt)))
		},
	},
	{
		name: "a hedge's response, the primary answering late", heard: true, ends: dropped, late: true, err: ErrNotFound,
		moved: map[string]int64{"hedges": 1},
		drive: func(x *endCell, p *sim.Proc) *Req {
			x.shape(x.home, shape{late: endLateBy})
			return x.wait(p, x.issue(p, WithHedge(endHedgeAt)))
		},
	},
	{
		name: "the primary's response, the hedge answering late", later: true, other: true, ends: dropped, late: true,
		moved: map[string]int64{"hedges": 1},
		drive: func(x *endCell, p *sim.Proc) *Req {
			x.shape(x.home, shape{late: endSlowBy})
			x.shape(x.other, shape{late: endLateBy})
			return x.wait(p, x.issue(p, WithHedge(endHedgeAt)))
		},
	},
	{
		name: "a bypass hit", bypass: true, offWire: true, ends: answered,
		moved: map[string]int64{"bypass-hits": 1},
		drive: func(x *endCell, p *sim.Proc) *Req {
			return x.wait(p, x.issue(p, WithReadPath(ReadBypass)))
		},
	},
	{
		// The resolver is still bootstrapping its connection's directory when
		// the hedge gives the request an attempt on the other one.
		name: "a bypass hit, a hedge fired mid-bootstrap", bypass: true, cold: true, later: true, other: true, ends: dropped, late: true,
		moved: map[string]int64{"bypass-hits": 1, "bypass-bootstraps": 1, "hedges": 1},
		drive: func(x *endCell, p *sim.Proc) *Req {
			x.shape(x.other, shape{late: endLateBy})
			return x.wait(p, x.issue(p, WithReadPath(ReadBypass), WithHedge(sim.Microsecond)))
		},
	},
	{
		// An out-of-line value is two READs, each endReadBy slow: the hedge
		// fires after the slot came back and before the segment does.
		name: "a bypass hit, a hedge fired between the slot and the segment READ", bypass: true, op: endGet("big"),
		later: true, other: true, ends: dropped, late: true,
		moved: map[string]int64{"bypass-hits": 1, "hedges": 1},
		drive: func(x *endCell, p *sim.Proc) *Req {
			x.shape(x.home, shape{late: endReadBy})
			x.shape(x.other, shape{late: endLateBy})
			reads := x.c.Faults.Get("bypass-reads")
			req := x.wait(p, x.issue(p, WithReadPath(ReadBypass), WithHedge(endReadBy*3/2)))
			if n := x.c.Faults.Get("bypass-reads") - reads; n != 2 {
				x.t.Errorf("the hit took %d READs, want the slot and the segment with the hedge between them", n)
			}
			return req
		},
	},
	{
		name: "a bypass fallback's response", bypass: true, op: endGet("absent"), later: true, heard: true, ends: answered, err: ErrNotFound,
		moved: map[string]int64{"bypass-fallbacks": 1},
		drive: func(x *endCell, p *sim.Proc) *Req {
			return x.wait(p, x.issue(p, WithReadPath(ReadBypass)))
		},
	},
	{
		// 8 KB against a 4 KB buffer: every attempt is shed at admission.
		name: "a retryable rejection, the budget then out", overload: true,
		op:    Op{Code: protocol.OpSet, Key: endKey, ValueSize: 8192, Value: "v"},
		heard: true, noAck: true, ends: refused, err: ErrBusy,
		moved: map[string]int64{"busy": 3, "retries": 2, "timeouts": 1},
		adjust: func(x *endCell, moved map[string]int64) {
			if x.col.frame {
				moved["busy"]++ // the frame is shed whole: the sibling too
			}
		},
		drive: func(x *endCell, p *sim.Proc) *Req {
			return x.wait(p, x.issue(p, WithRetry(RetryPolicy{
				MaxAttempts: 3, AttemptTimeout: endAttempt, Backoff: 5 * sim.Microsecond, Jitter: -1,
			})))
		},
	},
	{
		name: "the guard's deadline", ends: silent, err: ErrDeadlineExceeded,
		moved: map[string]int64{"timeouts": 1},
		drive: func(x *endCell, p *sim.Proc) *Req {
			x.shape(x.home, shape{mute: true})
			return x.wait(p, x.issue(p, WithDeadline(endDeadline)))
		},
	},
	{
		name: "the guard's deadline, a hedge out too", ends: silent, err: ErrDeadlineExceeded,
		moved: map[string]int64{"timeouts": 1, "hedges": 1},
		drive: func(x *endCell, p *sim.Proc) *Req {
			x.shape(x.home, shape{mute: true})
			x.shape(x.other, shape{mute: true})
			return x.wait(p, x.issue(p, WithDeadline(endDeadline), WithHedge(endHedgeAt)))
		},
	},
	{
		name: "WaitTimeout", ends: silent, err: ErrDeadlineExceeded,
		moved: map[string]int64{"timeouts": 1},
		drive: func(x *endCell, p *sim.Proc) *Req {
			x.shape(x.home, shape{mute: true})
			req := x.issue(p)
			if x.c.WaitTimeout(p, req, endDeadline) {
				x.t.Error("WaitTimeout reported completion for a request nothing answers")
			}
			return req
		},
	},
	{
		name: "Cancel", ends: dropped, err: ErrCanceled,
		moved: map[string]int64{"cancels": 1},
		drive: func(x *endCell, p *sim.Proc) *Req {
			x.shape(x.home, shape{mute: true})
			req := x.issue(p)
			p.Sleep(endCancelAt)
			x.c.Cancel(req)
			return req
		},
	},
	{
		name: "Cancel, a hedge out too", ends: dropped, err: ErrCanceled,
		moved: map[string]int64{"cancels": 1, "hedges": 1},
		drive: func(x *endCell, p *sim.Proc) *Req {
			x.shape(x.home, shape{mute: true})
			x.shape(x.other, shape{mute: true})
			req := x.issue(p, WithHedge(endHedgeAt))
			p.Sleep(endCancelAt)
			x.c.Cancel(req)
			return req
		},
	},
	{
		name: "on a socket, the answer", ipoib: true, offWire: true, heard: true, ends: answered,
		drive: func(x *endCell, p *sim.Proc) *Req {
			return x.c.roundTrip(p, endGet(endKey), endSocketRetry)
		},
	},
	{
		name: "on a socket, a RecvTimeout resend, then the answer", ipoib: true, offWire: true, heard: true, ends: answered,
		moved: map[string]int64{"retries": 1},
		drive: func(x *endCell, p *sim.Proc) *Req {
			x.net["client0"] = &shape{lose: 1}
			return x.c.roundTrip(p, endGet(endKey), endSocketRetry)
		},
	},
	{
		name: "on a socket, the resend budget out", ipoib: true, offWire: true, ends: silent, err: ErrDeadlineExceeded,
		moved: map[string]int64{"retries": 2, "timeouts": 1},
		drive: func(x *endCell, p *sim.Proc) *Req {
			x.net["client0"] = &shape{mute: true}
			return x.c.roundTrip(p, endGet(endKey), endSocketRetry)
		},
	},
	{
		name:        "on a socket, the stream closed",
		unbuildable: "nothing closes a verbs.Stream: the socket model has no Close, and the inbox is the package's own",
	},
}

// cannot says why the cell cannot be constructed, "" when it can.
func (row *endRow) cannot(col *endCol) string {
	switch {
	case row.unbuildable != "":
		return row.unbuildable
	case row.offWire && !(col.probe || row.ipoib && col.sent && !col.frame && !col.ack):
		return "a bypass resolution or a socket exchange is never registered on its connection: it is not parked, queued, framed or acked"
	case row.later && col.first:
		return "a window parks and frames a request's first attempt only; a hedge or a fallback goes straight out"
	case row.heard && !col.sent:
		return "an attempt that never reached the server is not answered, in time or late (the silent row has this cell)"
	case row.noAck && col.ack:
		return "the server sheds strictly before it acks"
	}
	return ""
}

// endCell is one cell's rig.
type endCell struct {
	t           *testing.T
	row         *endRow
	col         *endCol
	r           *testRig
	c           *Client
	net         shaper
	op          Op    // the subject operation
	home, other *conn // where the subject key's first attempt goes, and its hedge or failover
	on          *conn // where the placed attempt goes
	sibling     *Req  // the subject's frame-mate
	held        int   // credits the queued column holds on x.on
}

func newEndCell(t *testing.T, row *endRow, col *endCol) *endCell {
	o := rigOpts{transport: RDMA, pipeline: server.Async, servers: 2}
	if row.ipoib {
		o = rigOpts{transport: IPoIB}
	}
	o.clientCfg = func(cc *Config) {
		cc.Bypass = row.bypass
		if col.probe {
			cc.Breaker = BreakerConfig{Threshold: endTrips, Cooldown: endCooldown}
		}
	}
	if row.overload {
		o.serverCfg = func(sc *server.Config) {
			sc.BufferBytes = 4096
			sc.Overload = server.OverloadConfig{Enabled: true}
		}
	}
	x := &endCell{t: t, row: row, col: col, r: newTestRig(o), net: shaper{}}
	x.c = x.r.client
	if row.bypass {
		for _, srv := range x.r.servers {
			srv.AttachBypassDirectory(store.NewDirectory(srv.Device().AllocPD(), 0))
		}
	}
	if x.op = row.op; x.op.Key == "" {
		x.op = endGet(endKey)
	}
	x.home = x.c.route(x.op.Key, routeWrite, nil)
	x.other = x.c.conns[(x.home.serverID+1)%len(x.c.conns)]
	if x.on = x.home; row.other {
		x.on = x.other
	}
	x.r.fabric.SetFaults(x.net)
	return x
}

// shape sets what the fabric does to cn's server's messages from now on; the
// BufferAck an acked column wants of the placed attempt's server gets through.
func (x *endCell) shape(cn *conn, sh shape) {
	if x.col.ack && cn == x.on {
		sh.pass = 1
	}
	x.net[fmt.Sprintf("server%d", cn.serverID)] = &sh
}

// mate is a key that routes where the subject key does.
func (x *endCell) mate(name string) string {
	for i := 0; ; i++ {
		key := fmt.Sprintf("%s:%d", name, i)
		if x.c.route(key, routeWrite, nil) == x.home {
			return key
		}
	}
}

// place arranges, before the subject is issued, for the placed attempt to
// stand where the column says; unplace lets go once the request has ended and
// everything late has landed.
func (x *endCell) place(p *sim.Proc) {
	switch {
	case x.col.window:
		x.c.BeginBatch()
	case x.col.queued:
		x.held = x.on.credits.Total()
		if !x.on.credits.TryAcquireN(x.held) {
			x.t.Fatal("could not exhaust the connection's credits")
		}
	case x.col.probe:
		for i := 0; i < endTrips; i++ {
			x.on.noteFailure()
		}
		p.Sleep(endCooldown + sim.Microsecond) // the next attempt routed here is the probe
	}
}

func (x *endCell) unplace(p *sim.Proc) {
	if x.col.window {
		x.c.Flush(p)
	}
	if x.held > 0 {
		x.on.credits.ReleaseN(x.held)
	}
	if x.sibling != nil {
		x.c.Cancel(x.sibling) // a mute server never answered it
	}
}

// issue starts the subject with the row's options and the column's: its
// BufferAck, its frame (a sibling GET for the same server, one Flush).
func (x *endCell) issue(p *sim.Proc, opts ...IssueOption) *Req {
	if x.col.ack {
		opts = append(opts, WithBufferAck())
	}
	framed := x.col.frame && !x.row.later
	if framed {
		x.c.BeginBatch()
		x.sibling, _ = x.c.Issue(p, endGet(x.mate("sibling")))
	}
	req, err := x.c.Issue(p, x.op, opts...)
	if err != nil {
		x.t.Fatalf("issue: %v", err)
	}
	if framed {
		x.c.Flush(p)
	}
	return req
}

func (x *endCell) wait(p *sim.Proc, req *Req) *Req {
	x.c.Wait(p, req)
	return req
}

// endCounters are the counters a cell accounts for exactly: the row's moved,
// the column's breaker transitions, and nothing else.
var endCounters = []string{
	"retries", "failovers", "timeouts", "cancels", "hedges", "hedges-suppressed", "busy", "recovering",
	"stale-responses", "bypass-hits", "bypass-fallbacks", "bypass-bootstraps",
	"breaker-open", "breaker-halfopen", "breaker-close", "breaker-reroutes",
}

func (x *endCell) run() {
	t, c, row, col := x.t, x.c, x.row, x.col
	var req *Req
	before, after := map[string]int64{}, map[string]int64{}
	x.r.env.Spawn("cell", func(p *sim.Proc) {
		c.Set(p, endKey, 512, "v", 0, 0)
		if row.bypass {
			c.Set(p, "big", 8<<10, "V", 0, 0)
		}
		if row.bypass && !row.cold {
			c.Set(p, x.mate("warm"), 512, "w", 0, 0)
			bypassGet(t, p, c, x.mate("warm"), "w")
		}
		x.place(p)
		for _, name := range endCounters {
			before[name] = c.Faults.Get(name)
		}
		req = row.drive(x, p)
		if !req.Done() {
			t.Error("the drive returned before the request ended")
		}
		p.Sleep(endSettleBy)
		for _, name := range endCounters {
			after[name] = c.Faults.Get(name)
		}
		x.unplace(p)
	})
	x.r.env.Run()
	if req == nil {
		t.Fatal("the subject was never issued")
	}

	// Nothing is left on any connection, done fired once per request, and the
	// subject's attempts are all settled.
	drained(t, c)
	attempts := 0
	for att := &req.first; att != nil; att = att.next {
		attempts++
		if att.state != attSettled {
			t.Errorf("attempt %d of the subject is still in state %d", attempts, att.state)
		}
	}
	if attempts != req.Attempts && !row.ipoib { // a socket exchange is one attempt, resends included
		t.Errorf("the subject's chain holds %d attempts, it made %d", attempts, req.Attempts)
	}
	if err := req.Err(); !errors.Is(err, row.err) {
		t.Errorf("Err() = %v, want %v", err, row.err)
	}

	// The counters the ending moves, and only those.
	want := map[string]int64{}
	for name, n := range row.moved {
		want[name] = n
	}
	if row.adjust != nil {
		row.adjust(x, want)
	}
	if row.late && col.sent {
		want["stale-responses"]++
	}
	if col.probe {
		// The placed attempt took the slot, and its ending is the breaker's
		// verdict — or, dropped, none: the slot is free and the breaker
		// still half-open.
		want["breaker-halfopen"]++
		state := bkHalfOpen
		switch row.ends {
		case answered:
			want["breaker-close"]++
			state = bkClosed
		case silent, refused:
			want["breaker-open"]++
			state = bkOpen
		}
		if got := x.on.brk.state; got != state {
			t.Errorf("the probe ended %d: breaker state %d, want %d", row.ends, got, state)
		}
	}
	for _, name := range endCounters {
		if got := after[name] - before[name]; got != want[name] {
			t.Errorf("%s moved by %d, want %d", name, got, want[name])
		}
	}
}

func TestRequestEndMatrix(t *testing.T) {
	for i := range endRows {
		row := &endRows[i]
		t.Run(row.name, func(t *testing.T) {
			for j := range endCols {
				col := &endCols[j]
				t.Run(col.name, func(t *testing.T) {
					if why := row.cannot(col); why != "" {
						t.Skip("cannot be constructed: " + why)
					}
					newEndCell(t, row, col).run()
				})
			}
		})
	}
}
