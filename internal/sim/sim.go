// Package sim implements a deterministic discrete-event simulation kernel.
//
// Every actor in the simulated cluster that waits (client, server worker,
// NIC engine, SSD channel, writeback daemon, ...) runs as a Proc: a coroutine
// (iter.Pull) under a virtual clock owned by an Env. The scheduler resumes a
// process and gets control back when it parks or ends — a direct switch, no
// channel and no run queue — so exactly one process runs at any instant.
// Things that merely happen at an instant (a message arriving, a completion,
// a scheduled fault) are callback events — AtFunc, AfterFunc, AtCall,
// Event.OnFire — that the scheduler runs inline, to completion, in the same
// single order. Short-lived helper processes started per request use Go,
// which runs them on recycled coroutines. Shared simulation state therefore
// needs no locking, results are bit-for-bit reproducible, and virtual time
// advances with nanosecond precision regardless of host timer resolution.
//
// The blocking primitives (Sleep, Event.Wait, Queue.Get/Put,
// Resource.Acquire) must only be called by the owning process while it is
// the running process; from anywhere else they panic. Non-blocking variants
// (TryGet, TryPut, Fire, ...) may be called from any process, from a callback
// event, or from outside the simulation between runs.
package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
	"time"
)

// Time is virtual time elapsed since the start of the simulation.
type Time = time.Duration

// Common virtual-time units, re-exported so model code does not need to
// import time alongside sim.
const (
	Nanosecond  = time.Nanosecond
	Microsecond = time.Microsecond
	Millisecond = time.Millisecond
	Second      = time.Second
)

// Caller is a callback event's receiver: Fire runs inline in the scheduler, to
// completion, and must not block (see AtCall).
type Caller interface{ Fire() }

// funcCall adapts a plain func to Caller. A func value is pointer-shaped, so
// the conversion allocates nothing.
type funcCall func()

func (f funcCall) Fire() { f() }

// wakeup is one scheduled or pending thing the kernel will do: resume a
// parked process (p set) or run a callback event inline (call set). A process
// may have several outstanding wakeups (e.g. an event wait plus a timeout);
// whichever is delivered first cancels the rest.
//
// Wakeups are pooled on the Env. A wakeup has exactly one holder at a time —
// a waiter list (Event, Queue, Resource) while pending, the heap once fired
// or scheduled — and is recycled only when that holder lets go of it: when
// it leaves the heap (delivered, or removed at the instant it is canceled),
// or when a waiter list drops a canceled entry instead of firing it. A
// process's own pending list is emptied at the instant its other wakeups
// are canceled, so it never outlives them.
type wakeup struct {
	p        *Proc   // process to resume; nil for a callback event
	call     Caller  // callback to run (p == nil)
	tag      int     // cause identifier, returned to the parked process
	index    int     // position on the heap, -1 while pending
	canceled bool    // pending, and its process was woken by something else
	free     bool    // on the free list; any use is a kernel bug
	next     *wakeup // free-list link
}

// slot is one heap entry. The (at, seq) key is stored by value so comparing
// entries never dereferences their wakeups.
type slot struct {
	at  Time
	seq int64
	w   *wakeup
}

func (a slot) before(b slot) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Env owns the virtual clock and the event queue of one simulation.
type Env struct {
	now    Time
	seq    int64
	heap   []slot // 4-ary min-heap on (at, seq); seq is unique, so order is total
	freeW  *wakeup
	idle   *Proc   // finished Go processes, ready to run another function
	procs  []*Proc // every process whose coroutine can still be resumed, for Close
	cur    *Proc   // the process running right now; nil in the scheduler and in callbacks
	alive  int
	fault  any // first panic value raised by a process
	closed bool
}

// NewEnv returns a fresh simulation environment with the clock at zero.
func NewEnv() *Env { return &Env{} }

// Close unwinds every parked process where it stands (its deferred functions
// run, no fault is recorded) and drops the heap: a parked coroutine never ends
// by itself, and it roots all that its stack reaches. Legal only between runs;
// afterwards Now still reads, another Close is a no-op, and whatever
// schedules, runs or blocks panics by name.
func (e *Env) Close() {
	if e.cur != nil {
		panic("sim: Close called from a running process")
	}
	e.closed = true
	for _, p := range e.procs {
		p.stop()
	}
	f := e.fault // a deferred function of an unwinding process panicked
	*e = Env{now: e.now, closed: true}
	if f != nil {
		panic(f)
	}
}

// mustBeOpen guards whatever schedules or runs: Close left nothing to do it on.
func (e *Env) mustBeOpen(call string) {
	if e.closed {
		panic("sim: " + call + " on a closed Env")
	}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Alive returns the number of processes that have been spawned and have not
// yet finished.
func (e *Env) Alive() int { return e.alive }

// push schedules w at time at, behind everything already scheduled for it.
func (e *Env) push(at Time, w *wakeup) {
	e.seq++
	e.heap = append(e.heap, slot{})
	e.siftUp(len(e.heap)-1, slot{at: at, seq: e.seq, w: w})
}

// remove takes the entry at heap position i off the heap.
func (e *Env) remove(i int) {
	h := e.heap
	n := len(h) - 1
	h[i].w.index = -1
	last := h[n]
	h[n] = slot{}
	e.heap = h[:n]
	if i == n {
		return
	}
	if i > 0 && last.before(h[(i-1)/4]) {
		e.siftUp(i, last)
	} else {
		e.siftDown(i, last)
	}
}

// siftUp places s in the hole at position i or above.
func (e *Env) siftUp(i int, s slot) {
	h := e.heap
	for i > 0 {
		parent := (i - 1) / 4
		if !s.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].w.index = i
		i = parent
	}
	h[i] = s
	s.w.index = i
}

// siftDown places s in the hole at position i or below.
func (e *Env) siftDown(i int, s slot) {
	h := e.heap
	for {
		first := 4*i + 1
		if first >= len(h) {
			break
		}
		least := first
		for c := first + 1; c < first+4 && c < len(h); c++ {
			if h[c].before(h[least]) {
				least = c
			}
		}
		if !h[least].before(s) {
			break
		}
		h[i] = h[least]
		h[i].w.index = i
		i = least
	}
	h[i] = s
	s.w.index = i
}

// newWakeup takes a wakeup from the free list for process p (or, with p nil,
// for callback c) and registers it among p's pending wakeups.
func (e *Env) newWakeup(p *Proc, c Caller, tag int) *wakeup {
	w := e.freeW
	if w == nil {
		w = new(wakeup)
	} else {
		e.freeW = w.next
	}
	*w = wakeup{p: p, call: c, tag: tag, index: -1}
	if p != nil {
		p.pending = append(p.pending, w)
	}
	return w
}

// recycle returns w to the free list. Only w's current holder may call it.
func (e *Env) recycle(w *wakeup) {
	if w.free {
		panic("sim: wakeup recycled twice")
	}
	*w = wakeup{index: -1, free: true, next: e.freeW}
	e.freeW = w
}

// Proc is one simulated process. All blocking kernel primitives take place
// on behalf of a Proc and must be invoked from its own coroutine.
type Proc struct {
	env      *Env
	name     string
	resume   func() (struct{}, bool) // runs the process until it parks or ends
	yield    func(struct{}) bool     // parks it: control returns to resume's caller
	stop     func()                  // unwinds it where it is parked
	slot     int                     // its place in env.procs
	pending  []*wakeup               // outstanding wakeups; starts out backed by pend
	pend     [2]*wakeup              // room for a wait plus its timeout without allocating
	wokenTag int
	fn       func(p *Proc) // what the current run executes
	// A process started by Go goes back on the Env's idle list when its run
	// returns; next is its link there.
	recycled bool
	next     *Proc
}

// Name returns the process name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// Env returns the environment this process belongs to.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Spawn creates a new process executing fn and schedules it to start at the
// current virtual time. It may be called before Run, from any running
// process, or from a callback event.
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.SpawnAt(e.now, name, fn)
}

// SpawnAt is like Spawn but delays the process start until virtual time t.
func (e *Env) SpawnAt(t Time, name string, fn func(p *Proc)) *Proc {
	e.mustBeOpen("Spawn")
	if t < e.now {
		t = e.now
	}
	p := e.newProc()
	p.name, p.fn = name, fn
	e.alive++
	e.scheduleWakeup(t, p, 0)
	return p
}

// newProc returns a fresh process, its coroutine made and not yet started.
func (e *Env) newProc() *Proc {
	p := &Proc{env: e, slot: len(e.procs)}
	p.pending = p.pend[:0]
	p.resume, p.stop = iter.Pull(p.serve)
	e.procs = append(e.procs, p)
	return p
}

// Go is Spawn without the handle, for short-lived helpers started per
// request: it takes its start slot exactly where Spawn would, and the new
// process runs and ends like a spawned one, but on the coroutine and Proc of
// an earlier Go process that has finished, when there is one. Because the
// Proc is reused, fn must not keep p beyond its own return; no handle is
// returned for the same reason.
//
// Ownership: while a run is live the Proc belongs to it, like any process.
// When fn returns, the process has no pending wakeups (delivery cleared them,
// and every primitive that registers one parks), so nothing in the kernel
// refers to the Proc and the idle list takes it. A run that ends by panic or
// runtime.Goexit ends its coroutine too: that Proc is dropped, never reused.
func (e *Env) Go(name string, fn func(p *Proc)) {
	e.mustBeOpen("Go")
	p := e.idle
	if p == nil {
		p = e.newProc()
		p.recycled = true
	} else {
		e.idle, p.next = p.next, nil
	}
	p.name, p.fn = name, fn
	e.alive++
	e.scheduleWakeup(e.now, p, 0)
}

// serve is a process's coroutine, the sequence iter.Pull resumes: one
// function per start wakeup — the only one for a spawned process, one after
// another for a Go process, parked between them, until a run ends abnormally.
func (p *Proc) serve(yield func(struct{}) bool) {
	p.yield = yield
	for p.runOnce() && yield(struct{}{}) {
	}
}

// runOnce runs the current function and hands control back however it ends:
// by returning, by panicking (re-raised from Run, in the simulation driver's
// goroutine), by runtime.Goexit (a t.Fatal inside a process), or unwound by
// Close. It reports whether the coroutine may serve another run: only a Go
// process, and only after a plain return, is put on the idle list. On Goexit
// it does not return at all: it parks for the last time from the handler,
// because iter.Pull would raise a coroutine's Goexit in RunUntil's caller.
func (p *Proc) runOnce() (reusable bool) {
	e := p.env
	returned := false
	defer func() {
		r := recover()
		if r != nil && r != (unwind{}) && e.fault == nil {
			e.fault = fmt.Errorf("sim: process %q panicked: %v\n%s", p.name, r, debug.Stack())
		}
		p.fn = nil
		reusable = p.recycled && returned && len(p.pending) == 0
		if reusable {
			p.next, e.idle = e.idle, p
		} else if !e.closed { // ending, or (Goexit) never resumed again: off Close's list
			n := len(e.procs) - 1
			e.procs[p.slot], e.procs[n].slot = e.procs[n], p.slot
			e.procs[n] = nil
			e.procs = e.procs[:n]
		}
		e.alive--
		if !returned && r == nil {
			p.yield(struct{}{})
		}
	}()
	p.fn(p)
	returned = true
	return
}

// AtFunc schedules fn as a callback event at virtual time t (now, if t has
// passed): RunUntil executes it inline, to completion, at the (t, seq) slot
// a process spawned here by SpawnAt would have started in — with no
// goroutine, no handoff and nothing to clean up after. fn must not block:
// it has no process, and a blocking primitive called from it panics. It may
// do everything else — fire events, put to queues, spawn processes, schedule
// further callbacks. Use it for things that happen at an instant (a message
// arriving, a completion, a timer expiring, a scheduled fault); use Spawn
// for actors that wait.
func (e *Env) AtFunc(t Time, fn func()) { e.AtCall(t, funcCall(fn)) }

// AtCall is AtFunc for a callback that already lives in a record of the
// caller's: c.Fire runs where fn would. Binding a method to its receiver
// (AtFunc(t, rec.deliver)) allocates a closure per event; passing the
// receiver does not.
func (e *Env) AtCall(t Time, c Caller) {
	e.mustBeOpen("AtCall")
	if t < e.now {
		t = e.now
	}
	e.push(t, e.newWakeup(nil, c, 0))
}

// AfterFunc is AtFunc at d from now. Negative durations are treated as zero.
func (e *Env) AfterFunc(d Time, fn func()) { e.AtFunc(e.now+d, fn) }

// scheduleWakeup enqueues a wakeup for p at time t.
func (e *Env) scheduleWakeup(t Time, p *Proc, tag int) {
	e.push(t, e.newWakeup(p, nil, tag))
}

// fireWakeup schedules a pending wakeup to deliver now. The waiter list that
// held w gives it up by this call: a canceled w is recycled here, a live one
// when the scheduler pops it.
func (e *Env) fireWakeup(w *wakeup) {
	if w.free || w.index >= 0 {
		panic("sim: pending wakeup fired twice")
	}
	if w.canceled {
		e.recycle(w)
		return
	}
	e.push(e.now, w)
}

// mustBeRunning is called by every blocking primitive once it knows it will
// block, before it registers a wakeup: only the process the scheduler is
// running right now can park. Anything else — a callback event, another
// process, code outside Run — has no resume of its own to yield to, so it
// panics here instead, naming prim.
func (p *Proc) mustBeRunning(prim string) {
	if p.env.cur != p {
		panic("sim: " + prim + " called from outside the running process " +
			"(a callback event, another process's goroutine, or outside Run)")
	}
}

// park blocks the calling process until one of its pending wakeups is
// delivered, and returns that wakeup's tag. All other pending wakeups are
// canceled.
func (p *Proc) park() int {
	if !p.yield(struct{}{}) {
		panic(unwind{})
	}
	return p.wokenTag
}

// unwind is what park panics with when Close has stopped the process.
type unwind struct{}

// Run executes the simulation until no scheduled wakeups remain, and returns
// the final virtual time. Processes still blocked on events/queues at that
// point remain parked; use Parked or Alive to detect them in tests.
func (e *Env) Run() Time { return e.RunUntil(-1) }

// RunUntil executes scheduled wakeups with time ≤ limit (limit < 0 means no
// limit) and returns the virtual time reached.
func (e *Env) RunUntil(limit Time) Time {
	e.mustBeOpen("RunUntil")
	for len(e.heap) > 0 {
		top := e.heap[0]
		if limit >= 0 && top.at > limit {
			e.now = limit
			return e.now
		}
		e.remove(0)
		if top.at > e.now {
			e.now = top.at
		}
		w := top.w
		if w.p == nil {
			c := w.call
			e.recycle(w)
			e.runCallback(c)
			continue
		}
		p := w.p
		// Deliver: cancel the process's other pending wakeups.
		for _, o := range p.pending {
			switch {
			case o == w:
			case o.free:
				panic("sim: recycled wakeup still pending on " + p.name)
			case o.index >= 0:
				e.remove(o.index)
				e.recycle(o)
			default:
				o.canceled = true // its waiter list recycles it
			}
		}
		p.pending = p.pending[:0]
		p.wokenTag = w.tag
		e.recycle(w)
		e.cur = p
		p.resume()
		e.cur = nil
		if f := e.fault; f != nil {
			e.fault = nil
			panic(f)
		}
	}
	if limit >= 0 && limit > e.now {
		e.now = limit
	}
	return e.now
}

// runCallback runs one callback event in the scheduler's goroutine. A panic
// is re-raised from RunUntil like a process's, with the stack of the
// callback that raised it.
func (e *Env) runCallback(c Caller) {
	defer func() {
		if r := recover(); r != nil {
			panic(fmt.Errorf("sim: callback event panicked: %v\n%s", r, debug.Stack()))
		}
	}()
	c.Fire()
}

// Parked reports how many live processes are currently blocked with no
// scheduled wakeup (i.e. waiting on an Event, Queue or Resource that nothing
// has fired). Only meaningful when Run or RunUntil has returned.
func (e *Env) Parked() int {
	scheduled := map[*Proc]bool{}
	for _, s := range e.heap {
		if s.w.p != nil {
			scheduled[s.w.p] = true
		}
	}
	return e.alive - len(scheduled)
}

// Sleep suspends the process for d of virtual time. Negative durations are
// treated as zero (yield to same-time events already scheduled).
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.mustBeRunning("Sleep")
	p.env.scheduleWakeup(p.env.now+d, p, 0)
	p.park()
}

// WaitUntil suspends the process until virtual time t (no-op if t has
// passed).
func (p *Proc) WaitUntil(t Time) {
	if t <= p.env.now {
		p.Yield()
		return
	}
	p.mustBeRunning("WaitUntil")
	p.env.scheduleWakeup(t, p, 0)
	p.park()
}

// Yield reschedules the process at the current time behind already-scheduled
// same-time wakeups.
func (p *Proc) Yield() {
	p.mustBeRunning("Yield")
	p.env.scheduleWakeup(p.env.now, p, 0)
	p.park()
}

// Event is a one-shot condition processes can wait on and callbacks can
// observe. Create one with Env.NewEvent, or embed one in a larger record and
// Init it.
type Event struct {
	env   *Env
	fired bool
	// Waiters in arrival order: first, then more. Most events have one.
	first *wakeup
	more  []*wakeup
}

// NewEvent returns a fresh unfired event.
func (e *Env) NewEvent() *Event { return &Event{env: e} }

// Init makes a zero Event usable on env, for events embedded by value in a
// record that is allocated once (a fabric message, a request).
func (ev *Event) Init(env *Env) { *ev = Event{env: env} }

// Fired reports whether the event has fired.
func (ev *Event) Fired() bool { return ev.fired }

// Fire marks the event complete and wakes all waiters at the current virtual
// time. Firing an already-fired event is a no-op.
func (ev *Event) Fire() {
	if ev.fired {
		return
	}
	ev.fired = true
	if ev.first != nil {
		ev.env.fireWakeup(ev.first)
		ev.first = nil
	}
	for _, w := range ev.more {
		ev.env.fireWakeup(w)
	}
	ev.more = nil
}

func (ev *Event) addWaiter(w *wakeup) {
	if ev.first == nil { // waiters only leave at Fire, all at once: no first means none
		ev.first = w
		return
	}
	ev.more = append(ev.more, w)
}

// OnFire runs fn as a callback event when ev fires: Fire schedules it at
// the firing instant, in line with the processes waiting on ev, exactly as
// it would wake a process that had called Wait here. If ev has already
// fired, fn runs at once, as Wait would return at once. fn must not block
// (see AtFunc).
func (ev *Event) OnFire(fn func()) {
	if ev.fired {
		fn()
		return
	}
	ev.addWaiter(ev.env.newWakeup(nil, funcCall(fn), 0))
}

// Wait blocks the process until the event fires. Returns immediately if it
// already has.
func (p *Proc) Wait(ev *Event) {
	if ev.fired {
		return
	}
	p.mustBeRunning("Wait")
	ev.addWaiter(p.env.newWakeup(p, nil, 0))
	p.park()
}

// tags distinguishing wakeup causes for multi-cause parks.
const (
	tagEvent   = 1
	tagTimeout = 2
)

// WaitTimeout blocks until the event fires or d elapses, whichever is first.
// It reports whether the event fired (true) or the timeout won (false).
func (p *Proc) WaitTimeout(ev *Event, d Time) bool {
	if ev.fired {
		return true
	}
	if d <= 0 {
		return false
	}
	p.mustBeRunning("WaitTimeout")
	ev.addWaiter(p.env.newWakeup(p, nil, tagEvent))
	p.env.scheduleWakeup(p.env.now+d, p, tagTimeout)
	return p.park() == tagEvent
}

// WaitAny blocks until any of the given events fires, returning the index of
// the first fired event. If one is already fired, returns immediately.
func (p *Proc) WaitAny(evs ...*Event) int {
	for i, ev := range evs {
		if ev.fired {
			return i
		}
	}
	if len(evs) == 0 {
		panic("sim: WaitAny with no events")
	}
	p.mustBeRunning("WaitAny")
	for i, ev := range evs {
		ev.addWaiter(p.env.newWakeup(p, nil, i))
	}
	return p.park()
}

// AnyOf returns an event that fires as soon as any input event fires.
func (e *Env) AnyOf(evs ...*Event) *Event {
	out := e.NewEvent()
	for _, ev := range evs {
		if ev.fired {
			out.Fire()
			return out
		}
	}
	for _, ev := range evs {
		e.observe(ev, out.Fire)
	}
	return out
}

// observe starts watching ev one scheduler step from now, the step an
// observer process would have taken to start: input events that fire in
// between are seen as already fired.
func (e *Env) observe(ev *Event, fn func()) {
	e.AtFunc(e.now, func() { ev.OnFire(fn) })
}
