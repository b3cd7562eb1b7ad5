package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// --- order equivalence: recycled processes vs fresh ones ---

// starter is how a model starts a per-request helper. A helper is written in
// two parts — what it does before it first blocks, and the rest — so that a
// deliberately wrong starter can be told apart from a right one.
type starter func(env *Env, name string, before func(), rest func(p *Proc))

// freshStarter starts every helper on a Proc of its own, as a kernel that
// never recycled would: the idle list is hidden from Spawn.
var freshStarter starter = func(env *Env, name string, before func(), rest func(p *Proc)) {
	idle := env.idle
	env.idle = nil
	env.Spawn(name, func(p *Proc) { before(); rest(p) })
	env.idle = idle
}

var recycledStarter starter = func(env *Env, name string, before func(), rest func(p *Proc)) {
	env.Spawn(name, func(p *Proc) { before(); rest(p) })
}

// collapsedStarter skips the start hop: the helper's first stretch runs at
// the instant it is started, inside the starter, not in the (now, seq) slot
// a spawned process would have begun in.
var collapsedStarter starter = func(env *Env, name string, before func(), rest func(p *Proc)) {
	before()
	env.Spawn(name, rest)
}

// helperModel runs four workers through seeded random steps that start
// helpers of the shapes the client uses — a guard (a timed wait, then an
// action), a resolver (work, then a handoff), two helpers racing for one
// event, a helper that starts a helper, and one started from a callback
// event — with delays drawn from 0..3 ns so that same-instant ties, where
// only seq decides, are the common case. Finished helpers leave idle procs
// behind, so later ones run recycled. It returns the (at, seq, name) trace
// and how many Procs were made. The rng is shared and drawn from in execution
// order: one reordering anywhere changes everything after it.
func helperModel(tb testing.TB, seed int64, start starter) (trace []string, procs int) {
	env := testEnv(tb)
	rng := rand.New(rand.NewSource(seed))
	d := func() Time { return Time(rng.Intn(4)) }
	note := func(name, what string) {
		trace = append(trace, fmt.Sprintf("%d/%d %s %s", env.now, env.seq, name, what))
	}
	handoff := NewQueue[int](env, 0)
	for w := 0; w < 4; w++ {
		name := fmt.Sprintf("w%d", w)
		env.Spawn(name, func(p *Proc) {
			for step := 0; step < 200; step++ {
				hname := fmt.Sprintf("%s.h%d", name, step)
				switch rng.Intn(6) {
				case 0:
					p.Sleep(d())
					note(name, "slept")
				case 1: // guard: expire the request unless it completes in time
					done, budget := env.NewEvent(), d()
					start(env, hname,
						func() { note(hname, "guard up") },
						func(hp *Proc) {
							if !hp.WaitTimeout(done, budget) {
								note(hname, "expired")
								done.Fire()
							}
						})
					p.Sleep(d())
					note(name, fmt.Sprint("completing, done=", done.Fired()))
					done.Fire()
				case 2: // resolver: work, then hand the result over
					v, work := step, d()
					start(env, hname,
						func() { note(hname, "resolving") },
						func(hp *Proc) {
							hp.Sleep(work)
							handoff.TryPut(v)
							note(hname, "put")
						})
					got, _ := handoff.Get(p)
					note(name, fmt.Sprint("got=", got))
				case 3: // a guard and a hedge started back to back race for one event
					done := env.NewEvent()
					for _, role := range []string{"guard", "hedge"} {
						hn, budget := hname+"."+role, d()
						start(env, hn,
							func() { note(hn, "up") },
							func(hp *Proc) {
								note(hn, fmt.Sprint("won=", hp.WaitTimeout(done, budget)))
							})
					}
					p.Sleep(d())
					done.Fire()
					note(name, "fired")
				case 4: // a helper starts a helper
					inner := env.NewEvent()
					start(env, hname,
						func() { note(hname, "outer up") },
						func(hp *Proc) {
							hp.Sleep(d())
							start(env, hname+".inner",
								func() { note(hname+".inner", "up") },
								func(ip *Proc) { ip.Sleep(d()); inner.Fire() })
							hp.Wait(inner)
							note(hname, "inner done")
						})
					p.Wait(inner)
					note(name, "saw inner")
				case 5: // started from a callback event
					ran := env.NewEvent()
					env.AtFunc(env.Now()+d(), func() {
						start(env, hname,
							func() { note(hname, "up from callback") },
							func(hp *Proc) { hp.Yield(); ran.Fire() })
					})
					p.Wait(ran)
					note(name, "ran")
				}
			}
		})
	}
	env.Run()
	note("end", fmt.Sprint("alive=", env.Alive()))
	procs = len(env.procs)
	env.Close()
	return trace, procs
}

func TestRecycledSpawnOrdersLikeAFreshOne(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		fresh, made := helperModel(t, seed, freshStarter)
		recycled, reused := helperModel(t, seed, recycledStarter)
		if len(fresh) < 1000 {
			t.Fatalf("seed %d: model recorded only %d steps", seed, len(fresh))
		}
		if reused >= made {
			t.Fatalf("seed %d: %d Procs with recycling, %d without: nothing was recycled", seed, reused, made)
		}
		for i := range fresh {
			if i >= len(recycled) || fresh[i] != recycled[i] {
				t.Fatalf("seed %d: traces part at step %d of %d:\n fresh:    %v\n recycled: %v",
					seed, i, len(fresh), fresh[max(0, i-2):i+1], recycled[max(0, i-2):min(i+1, len(recycled))])
			}
		}
		if len(recycled) != len(fresh) {
			t.Fatalf("seed %d: %d steps on fresh Procs, %d on recycled ones", seed, len(fresh), len(recycled))
		}
		// The comparison has teeth: a start that does not take its own slot
		// is a different run.
		if collapsed, _ := helperModel(t, seed, collapsedStarter); strings.Join(collapsed, "\n") == strings.Join(fresh, "\n") {
			t.Errorf("seed %d: collapsing the start hop left the trace unchanged", seed)
		}
	}
}

// coroutines counts the goroutines parked in a process's coroutine. Unlike
// runtime.NumGoroutine it leaves out the goroutine of a test that has ended
// but not yet exited, which the race detector keeps around long enough to
// tell.
func coroutines() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "sim.(*Proc).serve(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

func TestSpawnReusesFinishedProcesses(t *testing.T) {
	env := testEnv(t)
	seen := map[*Proc]bool{}
	base := coroutines()
	for round := 0; round < 50; round++ {
		for i := 0; i < 4; i++ {
			name := fmt.Sprintf("h%d.%d", round, i)
			env.Spawn(name, func(p *Proc) {
				if p.Name() != name {
					t.Errorf("process %q runs under the name %q", name, p.Name())
				}
				seen[p] = true
				p.Sleep(Time(i))
			})
		}
		env.Run()
	}
	if len(seen) != 4 {
		t.Errorf("200 helpers, four at a time, ran on %d procs, want 4", len(seen))
	}
	if extra := coroutines() - base; extra != 4 {
		t.Errorf("%d goroutines left behind, want the 4 idle ones", extra)
	}
	if env.Alive() != 0 {
		t.Errorf("alive %d at the end, want 0", env.Alive())
	}
}

// TestRecycledProcessesComeBackCleanOrNotAtAll starts and finishes 10⁵
// processes, a few at a time, ending some by panic and some by
// runtime.Goexit. Every one must run exactly once, under its own name, with
// no wakeup pending from whoever had the Proc before; a Proc whose run ended
// abnormally must never run again; and the survivors must be few — recycled,
// not spawned afresh. Run under -race (make race) it also shows that the
// handover of a Proc from one run to the next is ordered.
func TestRecycledProcessesComeBackCleanOrNotAtAll(t *testing.T) {
	const total = 100_000
	env := testEnv(t)
	rng := rand.New(rand.NewSource(7))
	ev := env.NewEvent() // never fires: timed waits on it leave canceled wakeups behind
	ran := make([]int, total)
	dead := map[*Proc]bool{}
	procs := map[*Proc]bool{}
	panics, exits := 0, 0
	next := 0
	startOne := func() {
		id := next
		next++
		name := fmt.Sprint("helper-", id)
		fate := rng.Intn(100)
		env.Spawn(name, func(p *Proc) {
			ran[id]++
			procs[p] = true
			if dead[p] {
				t.Errorf("%s runs on a Proc whose earlier run ended abnormally", name)
			}
			if p.Name() != name || len(p.pending) != 0 {
				t.Errorf("%s starts dirty: name %q, %d wakeups pending", name, p.Name(), len(p.pending))
			}
			switch id % 3 {
			case 0:
				p.Sleep(Time(id % 5))
			case 1:
				p.WaitTimeout(ev, Time(1+id%3))
			case 2:
				p.Yield()
			}
			switch {
			case fate == 0:
				dead[p] = true
				panics++
				panic("helper blew up")
			case fate == 1:
				dead[p] = true
				exits++
				runtime.Goexit()
			}
		})
	}
	for next < total {
		for i := 0; i < 1+rng.Intn(8) && next < total; i++ {
			startOne()
		}
		for env.Alive() > 0 {
			// A panicking process surfaces from Run; the env carries on.
			if msg := recovered(func() { env.Run() }); msg != "" && !strings.Contains(msg, "helper blew up") {
				t.Fatal(msg)
			}
		}
	}
	for id, n := range ran {
		if n != 1 {
			t.Fatalf("helper %d ran %d times", id, n)
		}
	}
	if panics == 0 || exits == 0 {
		t.Fatalf("the mix had %d panics and %d Goexits: nothing tested", panics, exits)
	}
	// Every abnormal end costs one Proc; the rest are the handful that were
	// ever live at once.
	if got, limit := len(procs), panics+exits+8; got > limit {
		t.Errorf("%d helpers ran on %d procs, want at most %d (%d panics, %d Goexits)", total, got, limit, panics, exits)
	}
	for p := env.idle; p != nil; p = p.next {
		if dead[p] {
			t.Error("a Proc whose run ended abnormally is on the idle list")
		}
	}
}
