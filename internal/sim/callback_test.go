package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func TestAtFuncRunsInlineAtItsSlot(t *testing.T) {
	env := NewEnv()
	var order []string
	env.Spawn("first", func(p *Proc) { p.Sleep(10); order = append(order, "proc-a") })
	env.AtFunc(10, func() { order = append(order, fmt.Sprint("callback@", env.Now())) })
	env.Spawn("second", func(p *Proc) { p.Sleep(10); order = append(order, "proc-b") })
	env.AfterFunc(-5, func() { order = append(order, fmt.Sprint("callback@", env.Now())) })
	if end := env.Run(); end != 10 {
		t.Errorf("run ended at %v, want 10", end)
	}
	// The t=10 callback took its seq before either process scheduled its
	// t=10 sleep, so it runs ahead of both.
	want := "callback@0s callback@10ns proc-a proc-b"
	if got := strings.Join(order, " "); got != want {
		t.Errorf("order %q, want %q", got, want)
	}
}

func TestOnFireRunsWithTheWaiters(t *testing.T) {
	env := NewEnv()
	ev := env.NewEvent()
	var order []string
	env.Spawn("w1", func(p *Proc) { p.Wait(ev); order = append(order, "w1") })
	env.AfterFunc(0, func() { ev.OnFire(func() { order = append(order, "cb") }) })
	env.Spawn("w2", func(p *Proc) { p.Wait(ev); order = append(order, "w2") })
	env.AtFunc(5, ev.Fire)
	env.Run()
	if got := strings.Join(order, " "); got != "w1 cb w2" {
		t.Errorf("order %q, want \"w1 cb w2\"", got)
	}
	ran := false
	ev.OnFire(func() { ran = true })
	if !ran {
		t.Error("OnFire on a fired event did not run at once")
	}
}

func TestCallbackMaySpawnAndSchedule(t *testing.T) {
	env := NewEnv()
	var at []Time
	env.AtFunc(3, func() {
		env.Spawn("child", func(p *Proc) { p.Sleep(4); at = append(at, p.Now()) })
		env.AfterFunc(2, func() { at = append(at, env.Now()) })
	})
	env.Run()
	if len(at) != 2 || at[0] != 5 || at[1] != 7 {
		t.Errorf("callback's callback and child ran at %v, want [5ns 7ns]", at)
	}
}

// recovered runs fn and returns the panic it raised, as text.
func recovered(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

func explodingCallback() { panic("boom in a callback") }

func TestCallbackPanicSurfacesFromRunWithItsSite(t *testing.T) {
	env := NewEnv()
	env.AtFunc(7, explodingCallback)
	survivor := false
	env.AtFunc(9, func() { survivor = true })
	msg := recovered(func() { env.RunUntil(100) })
	for _, want := range []string{"callback event panicked", "boom in a callback", "sim.explodingCallback", "callback_test.go"} {
		if !strings.Contains(msg, want) {
			t.Errorf("panic from RunUntil lacks %q:\n%s", want, msg)
		}
	}
	if env.Now() != 7 {
		t.Errorf("clock at %v after the panic, want 7", env.Now())
	}
	// The env is still usable: the failed event is gone, the rest runs.
	env.Run()
	if !survivor {
		t.Error("event scheduled after the panicking one never ran")
	}
}

func TestBlockingOutsideTheRunningProcessPanics(t *testing.T) {
	env := NewEnv()
	ev := env.NewEvent()
	q := NewQueue[int](env, 0)
	res := NewResource(env, 1)
	res.TryAcquire()
	var idle *Proc
	idle = env.Spawn("idle", func(p *Proc) { p.Wait(env.NewEvent()) })
	env.Run()

	for prim, call := range map[string]func(){
		"Sleep":            func() { idle.Sleep(1) },
		"Yield":            func() { idle.Yield() },
		"WaitUntil":        func() { idle.WaitUntil(50) },
		"Wait":             func() { idle.Wait(ev) },
		"WaitTimeout":      func() { idle.WaitTimeout(ev, 5) },
		"WaitAny":          func() { idle.WaitAny(ev) },
		"Queue.Get":        func() { q.Get(idle) },
		"Queue.GetTimeout": func() { q.GetTimeout(idle, 5) },
		"Resource.Acquire": func() { res.Acquire(idle) },
	} {
		// From outside Run, from a callback event, and from another process.
		for where, run := range map[string]func(){
			"outside Run": call,
			"a callback":  func() { env.AfterFunc(0, call); env.Run() },
			"another process": func() {
				env.Spawn("intruder", func(*Proc) { call() })
				env.Run()
			},
		} {
			msg := recovered(run)
			if !strings.Contains(msg, "sim: "+prim+" called from outside the running process") {
				t.Errorf("%s from %s: panic %q does not name the primitive", prim, where, msg)
			}
		}
	}
}

func TestParkedCountsProcessesWithNothingScheduled(t *testing.T) {
	env := NewEnv()
	never := env.NewEvent()
	env.Spawn("blocked", func(p *Proc) { p.Wait(never) })
	env.Spawn("sleeper", func(p *Proc) { p.Sleep(100) })
	env.Spawn("both", func(p *Proc) { p.WaitTimeout(never, 80) }) // one process, a pending and a scheduled wakeup
	env.Spawn("done", func(p *Proc) {})
	env.RunUntil(50)
	if env.Alive() != 3 || env.Parked() != 1 {
		t.Errorf("at 50: alive %d parked %d, want 3 and 1", env.Alive(), env.Parked())
	}
	env.Run()
	if env.Alive() != 1 || env.Parked() != 1 {
		t.Errorf("at the end: alive %d parked %d, want 1 and 1", env.Alive(), env.Parked())
	}
}

// --- (a) order equivalence: helper processes vs callback events ---

// helpers is how a model schedules its one-instant actors: as processes
// spawned per event (the kernel's only tool before callback events) or as
// callback events. The two must be indistinguishable on the virtual clock.
type helpers struct {
	// at runs fn at virtual time t.
	at func(env *Env, t Time, fn func())
	// chain runs fn d after ev fires (the shape of an RC ack wait).
	chain func(env *Env, ev *Event, d Time, fn func())
}

var procHelpers = helpers{
	at: func(env *Env, t Time, fn func()) {
		env.SpawnAt(t, "helper", func(*Proc) { fn() })
	},
	chain: func(env *Env, ev *Event, d Time, fn func()) {
		env.Spawn("helper", func(p *Proc) {
			p.Wait(ev)
			p.Sleep(d)
			fn()
		})
	},
}

var callbackHelpers = helpers{
	at: func(env *Env, t Time, fn func()) { env.AtFunc(t, fn) },
	chain: func(env *Env, ev *Event, d Time, fn func()) {
		env.AfterFunc(0, func() {
			ev.OnFire(func() { env.AfterFunc(d, fn) })
		})
	},
}

// mixedModel runs six workers through seeded random steps over every
// blocking primitive, with delays drawn from 0..4 ns so that same-instant
// ties — where only seq decides — are the common case. It returns the
// (time, actor, what) trace. The rng is shared and drawn from in execution
// order, so one reordering anywhere changes everything after it.
func mixedModel(seed int64, h helpers) []string {
	env := NewEnv()
	rng := rand.New(rand.NewSource(seed))
	d := func() Time { return Time(rng.Intn(5)) }
	var trace []string
	note := func(actor, format string, args ...any) {
		trace = append(trace, fmt.Sprintf("%d %s %s", env.Now(), actor, fmt.Sprintf(format, args...)))
	}
	// Every Get below schedules its own put first and every Put its own
	// drain, so workers steal from each other but none starves.
	shared := NewQueue[int](env, 0)
	narrow := NewQueue[int](env, 1) // bounded: Put blocks
	for w := 0; w < 6; w++ {
		name := fmt.Sprintf("w%d", w)
		env.Spawn(name, func(p *Proc) {
			for step := 0; step < 150; step++ {
				hname := fmt.Sprintf("%s.h%d", name, step)
				fire := func(ev *Event) func() {
					return func() { note(hname, "fire"); ev.Fire() }
				}
				switch rng.Intn(9) {
				case 0:
					p.Sleep(d())
					note(name, "slept")
				case 1:
					ev := env.NewEvent()
					h.at(env, env.Now()+d(), fire(ev))
					p.Wait(ev)
					note(name, "waited")
				case 2:
					ev := env.NewEvent()
					h.at(env, env.Now()+d(), fire(ev))
					note(name, "waitTimeout=%v", p.WaitTimeout(ev, d()))
				case 3:
					evs := []*Event{env.NewEvent(), env.NewEvent(), env.NewEvent()}
					for _, ev := range evs {
						h.at(env, env.Now()+d(), fire(ev))
					}
					note(name, "waitAny=%d", p.WaitAny(evs...))
				case 4:
					v := step
					h.at(env, env.Now()+d(), func() { note(hname, "put=%v", shared.TryPut(v)) })
					got, ok := shared.Get(p)
					note(name, "get=%d,%v", got, ok)
				case 5:
					v := step
					h.at(env, env.Now()+d(), func() { note(hname, "put=%v", shared.TryPut(v)) })
					got, ok, timedOut := shared.GetTimeout(p, d())
					note(name, "getTimeout=%d,%v,%v", got, ok, timedOut)
				case 6:
					own := NewQueue[int](env, 0)
					h.at(env, env.Now()+d(), func() { note(hname, "close"); own.Close() })
					_, ok, timedOut := own.GetTimeout(p, d())
					note(name, "closed=%v,%v", ok, timedOut)
				case 7:
					sent, acked := env.NewEvent(), env.NewEvent()
					h.chain(env, sent, d(), fire(acked))
					// A second observer of sent, registered before the
					// helper has started: the helper must queue behind it.
					sent.OnFire(func() {
						env.AfterFunc(0, func() { note(hname, "sent seen") })
					})
					p.Sleep(d())
					sent.Fire()
					p.Wait(sent)
					p.Wait(acked)
					note(name, "acked")
				case 8:
					h.at(env, env.Now()+d(), func() {
						v, ok := narrow.TryGet()
						note(hname, "drain=%d,%v", v, ok)
					})
					narrow.Put(p, step)
					note(name, "put")
				}
			}
		})
	}
	env.Run()
	note("end", "alive=%d", env.Alive())
	return trace
}

func TestCallbackEventsOrderLikeHelperProcesses(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		procs, callbacks := mixedModel(seed, procHelpers), mixedModel(seed, callbackHelpers)
		if len(procs) < 1000 {
			t.Fatalf("seed %d: model recorded only %d steps", seed, len(procs))
		}
		for i := range procs {
			if i >= len(callbacks) || procs[i] != callbacks[i] {
				t.Fatalf("seed %d: traces part at step %d of %d:\n helper procs: %v\n callbacks:    %v",
					seed, i, len(procs), procs[max(0, i-2):i+1], callbacks[max(0, i-2):min(i+1, len(callbacks))])
			}
		}
		if len(callbacks) != len(procs) {
			t.Fatalf("seed %d: %d steps with helper procs, %d with callbacks", seed, len(procs), len(callbacks))
		}
	}
}
