package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

// What is new about a kernel whose processes are coroutines: whoever calls
// RunUntil lends its thread to every process it resumes, a panic crosses a
// coroutine switch on its way out of RunUntil, and Close unwinds what is
// parked.

// steppedModel builds four workers that sleep, hand items over a queue, start
// helpers with timed waits and schedule callback events, with delays drawn
// from 0..3 ns so that ties only seq decides are common. Nothing runs until
// the caller advances env; trace fills with (at, seq, name) as it does.
func steppedModel(tb testing.TB, seed int64) (env *Env, trace *[]string) {
	env, trace = testEnv(tb), new([]string)
	rng := rand.New(rand.NewSource(seed))
	d := func() Time { return Time(rng.Intn(4)) }
	note := func(name string) {
		*trace = append(*trace, fmt.Sprintf("%d/%d %s", env.now, env.seq, name))
	}
	q := NewQueue[int](env, 0)
	for w := 0; w < 4; w++ {
		name := fmt.Sprint("w", w)
		env.Spawn(name, func(p *Proc) {
			for step := 0; step < 150; step++ {
				switch rng.Intn(4) {
				case 0:
					p.Sleep(d())
				case 1:
					env.AtFunc(env.Now()+d(), func() { note(name + ".cb"); q.TryPut(step) })
					q.Get(p)
				case 2:
					done, budget := env.NewEvent(), d()
					env.Spawn(name+".guard", func(hp *Proc) {
						note(fmt.Sprint(hp.Name(), " won=", hp.WaitTimeout(done, budget)))
					})
					p.Sleep(d())
					done.Fire()
				case 3:
					p.Yield()
				}
				note(name)
			}
		})
	}
	return env, trace
}

func TestRunUntilFromSeveralGoroutinesInTurn(t *testing.T) {
	// Each helper goroutine runs what it is sent and hands the turn back; the
	// unbuffered channels order one caller's RunUntil before the next one's.
	work, turn := make(chan func()), make(chan struct{})
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		go func() {
			for f := range work {
				f()
				turn <- struct{}{}
			}
		}()
	}
	defer func() { // gone before a later test counts goroutines
		close(work)
		for i := 0; runtime.NumGoroutine() > before; i++ {
			if i == 1e6 {
				t.Fatal("the helper goroutines, or a closed Env's coroutines, are still there")
			}
			runtime.Gosched()
		}
	}()
	elsewhere := func(f func()) { work <- f; <-turn }
	here := func(f func()) { f() }

	for seed := int64(1); seed <= 3; seed++ {
		var traces [2][]string
		for i, on := range []func(func()){here, elsewhere} {
			env, trace := steppedModel(t, seed)
			for at := Time(0); env.Alive() > 0; at += 5 {
				on(func() { env.RunUntil(at) })
			}
			traces[i] = *trace
			env.Close() // its idle helpers would be counted too
		}
		one, three := traces[0], traces[1]
		if len(one) < 600 {
			t.Fatalf("seed %d: model recorded only %d steps", seed, len(one))
		}
		if len(one) != len(three) {
			t.Fatalf("seed %d: %d steps from one goroutine, %d from three", seed, len(one), len(three))
		}
		for i := range one {
			if one[i] != three[i] {
				t.Fatalf("seed %d: traces part at step %d: %q from one goroutine, %q from three", seed, i, one[i], three[i])
			}
		}
	}
}

func explodingProcess(p *Proc) {
	p.Sleep(7)
	panic("boom in a process")
}

func TestProcessPanicAndGoexitLeaveTheRunGoing(t *testing.T) {
	env := testEnv(t)
	env.Spawn("fragile", explodingProcess)
	ticks := 0
	env.Spawn("ticker", func(p *Proc) {
		for ; ticks < 20; ticks++ {
			p.Sleep(1)
		}
	})
	unwound := false
	env.Spawn("quitter", func(p *Proc) {
		defer func() { unwound = true }()
		p.Sleep(12)
		runtime.Goexit()
	})

	msg := recovered(func() { env.Run() })
	for _, want := range []string{`process "fragile" panicked`, "boom in a process", "sim.explodingProcess", "coroutine_test.go"} {
		if !strings.Contains(msg, want) {
			t.Errorf("panic from Run lacks %q:\n%s", want, msg)
		}
	}
	if env.Now() != 7 || env.Alive() != 2 {
		t.Errorf("after the panic: clock %v, alive %d, want 7 and 2", env.Now(), env.Alive())
	}
	// The env is still usable, and a Goexit (a t.Fatal inside a process) ends
	// its process and nothing else: Run returns normally, in this goroutine.
	if msg := recovered(func() { env.Run() }); msg != "" {
		t.Fatalf("second Run panicked: %s", msg)
	}
	if ticks != 20 || !unwound || env.Alive() != 0 || env.Parked() != 0 {
		t.Errorf("at the end: %d ticks, quitter unwound %v, alive %d, parked %d; want 20, true, 0, 0",
			ticks, unwound, env.Alive(), env.Parked())
	}
}

// settledCoroutines reads coroutines until two readings a millisecond apart
// agree, for at most a second: a process of an earlier test's Env that is
// still unwinding is not counted into a base.
func settledCoroutines() int {
	n := coroutines()
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		m := coroutines()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// coroutinesBackTo polls coroutines until it reads at most base, for at most
// a second, and returns the last reading.
func coroutinesBackTo(base int) int {
	n := coroutines()
	for deadline := time.Now().Add(time.Second); n > base && time.Now().Before(deadline); n = coroutines() {
		time.Sleep(time.Millisecond)
	}
	return n
}

func TestCloseUnwindsEveryParkedProcess(t *testing.T) {
	base := settledCoroutines()
	env := testEnv(t)
	never, q, res := env.NewEvent(), NewQueue[int](env, 0), NewResource(env, 1)
	res.TryAcquire()
	unwound := map[string]int{}
	parked := map[string]func(p *Proc){
		"in Sleep":       func(p *Proc) { p.Sleep(1000) },
		"in Wait":        func(p *Proc) { p.Wait(never) },
		"in WaitTimeout": func(p *Proc) { p.WaitTimeout(never, 1000) },
		"in Get":         func(p *Proc) { q.Get(p) },
		"in Acquire":     func(p *Proc) { res.Acquire(p) },
	}
	var sleeper *Proc
	for name, block := range parked {
		env.Spawn(name, func(p *Proc) {
			if name == "in Sleep" {
				sleeper = p // parked for good: its Proc is never reused
			}
			defer func() { unwound[name]++ }()
			block(p)
			t.Errorf("%s: came back from its park", name)
		})
	}
	env.Spawn("helper", func(p *Proc) { p.Sleep(1) }) // idle between runs by the time of Close
	env.Spawn("finished", func(p *Proc) {})           // idle too, until "never started" takes it
	env.RunUntil(10)
	env.SpawnAt(20, "never started", func(p *Proc) { t.Error("a process started by Close") })
	if len(env.procs) != len(parked)+2 {
		t.Fatalf("%d procs on the Env's list before Close, want the %d parked, the idle one and the unstarted one",
			len(env.procs), len(parked))
	}
	for i, p := range env.procs {
		if p.slot != i {
			t.Errorf("%s is at %d on the Env's list and believes it is at %d", p.name, i, p.slot)
		}
	}
	if msg := recovered(func() { env.Spawn("closer", func(*Proc) { env.Close() }); env.RunUntil(10) }); !strings.Contains(msg, "sim: Close called from a running process") {
		t.Errorf("Close from a process: panic %q", msg)
	}

	env.Close()
	env.Close() // a no-op
	if got := coroutinesBackTo(base); got > base {
		t.Errorf("%d coroutines after Close, %d before the Env was made", got, base)
	}
	for name := range parked {
		if unwound[name] != 1 {
			t.Errorf("%s: its deferred function ran %d times, want 1", name, unwound[name])
		}
	}
	if env.Now() != 10 || env.Alive() != 0 || env.Parked() != 0 {
		t.Errorf("closed: clock %v, alive %d, parked %d; want 10, 0, 0", env.Now(), env.Alive(), env.Parked())
	}
	for call, fn := range map[string]func(){
		"Spawn":    func() { env.Spawn("late", func(*Proc) {}) },
		"AtCall":   func() { env.AtFunc(env.Now()+1, func() {}) },
		"RunUntil": func() { env.Run() },
	} {
		if msg := recovered(fn); msg != "sim: "+call+" on a closed Env" {
			t.Errorf("%s on a closed Env: panic %q", call, msg)
		}
	}
	if msg := recovered(func() { sleeper.Sleep(1) }); !strings.Contains(msg, "sim: Sleep called from outside the running process") {
		t.Errorf("Sleep on a closed Env: panic %q", msg)
	}
	if got := coroutinesBackTo(base); got > base {
		t.Errorf("%d coroutines after the refused calls, want %d", got, base)
	}
}

// A process that ended by Goexit parked for the last time in the middle of
// unwinding; Close must leave it alone (stopping it would finish the Goexit
// in Close's caller), and a deferred function that panics while Close unwinds
// its process surfaces from Close.
func TestCloseLeavesGoexitsAloneAndReraisesPanics(t *testing.T) {
	env := testEnv(t)
	env.Spawn("quitter", func(p *Proc) { runtime.Goexit() })
	env.Spawn("sore loser", func(p *Proc) {
		defer func() { panic("boom while unwinding") }()
		p.Wait(env.NewEvent())
	})
	env.Run()
	msg := recovered(env.Close)
	for _, want := range []string{`process "sore loser" panicked`, "boom while unwinding"} {
		if !strings.Contains(msg, want) {
			t.Errorf("panic from Close lacks %q:\n%s", want, msg)
		}
	}
	if msg := recovered(env.Close); msg != "" {
		t.Errorf("second Close panicked: %s", msg)
	}
}
