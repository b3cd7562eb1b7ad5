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
	env.AtFunc(env.Now()-5, func() { order = append(order, fmt.Sprint("callback@", env.Now())) })
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

func TestCallbackMaySpawnAndSchedule(t *testing.T) {
	env := NewEnv()
	var at []Time
	env.AtFunc(3, func() {
		env.Spawn("child", func(p *Proc) { p.Sleep(4); at = append(at, p.Now()) })
		env.AtFunc(env.Now()+2, func() { at = append(at, env.Now()) })
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
	env.Spawn("idle", func(p *Proc) { idle = p; p.Wait(env.NewEvent()) })
	env.Run()

	for prim, call := range map[string]func(){
		"Sleep":            func() { idle.Sleep(1) },
		"Yield":            func() { idle.Yield() },
		"WaitUntil":        func() { idle.WaitUntil(50) },
		"Wait":             func() { idle.Wait(ev) },
		"WaitTimeout":      func() { idle.WaitTimeout(ev, 5) },
		"WaitAny":          func() { idle.WaitAny(ev) },
		"WaitEither":       func() { idle.WaitEither(ev, ev, 5) },
		"Queue.Get":        func() { q.Get(idle) },
		"Queue.GetTimeout": func() { q.GetTimeout(idle, 5) },
		"Resource.Acquire": func() { res.Acquire(idle) },
	} {
		// From outside Run, from a callback event, and from another process.
		for where, run := range map[string]func(){
			"outside Run": call,
			"a callback":  func() { env.AtFunc(env.Now(), call); env.Run() },
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
}

var procHelpers = helpers{
	at: func(env *Env, t Time, fn func()) {
		env.SpawnAt(t, "helper", func(*Proc) { fn() })
	},
}

var callbackHelpers = helpers{
	at: func(env *Env, t Time, fn func()) { env.AtFunc(t, fn) },
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
	// Every Get below schedules its own put first and every take of the slot
	// its own release, so workers steal from each other but none starves.
	shared := NewQueue[int](env, 0)
	slot := NewResource(env, 1) // held from a take to a helper's release
	for w := 0; w < 6; w++ {
		name := fmt.Sprintf("w%d", w)
		env.Spawn(name, func(p *Proc) {
			for step := 0; step < 150; step++ {
				hname := fmt.Sprintf("%s.h%d", name, step)
				fire := func(ev *Event) func() {
					return func() { note(hname, "fire"); ev.Fire() }
				}
				switch rng.Intn(8) {
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
					h.at(env, env.Now()+d(), func() { note(hname, "put"); shared.TryPut(v) })
					got, ok := shared.Get(p)
					note(name, "get=%d,%v", got, ok)
				case 5:
					v := step
					h.at(env, env.Now()+d(), func() { note(hname, "put"); shared.TryPut(v) })
					got, ok := shared.GetTimeout(p, d())
					note(name, "getTimeout=%d,%v", got, ok)
				case 6:
					// An ack chained d after sent fires, through a process
					// in both variants (the shape of an RC ack wait).
					sent, acked, ackDelay := env.NewEvent(), env.NewEvent(), d()
					env.Spawn("chain", func(cp *Proc) {
						cp.Wait(sent)
						cp.Sleep(ackDelay)
						fire(acked)()
					})
					p.Sleep(d())
					sent.Fire()
					p.Wait(sent)
					p.Wait(acked)
					note(name, "acked")
				case 7:
					slot.Acquire(p)
					h.at(env, env.Now()+d(), func() { note(hname, "release"); slot.Release() })
					note(name, "took")
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
