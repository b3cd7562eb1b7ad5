package sim

import "testing"

// Host-cost microbenchmarks and allocation ceilings for the kernel's
// primitives. ns/op is host time per primitive, not virtual time; the
// ceilings are what keeps every layer above allocation-free per event.
//
//	go test ./internal/sim -run '^$' -bench . -benchmem

// Each model below is long-lived: building it spawns its processes, and each
// call of the step it returns performs one primitive and runs the env until
// it is idle again; the two sleep models' steps run the env to a limit
// instead, as their sleepers are never idle.

func benchSteps(b *testing.B, step func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// timerModel: one process sleeping 1 µs at a time with nothing else due, so
// its sleeps take their wakeups in place. A step runs the env 1 ms further:
// 1000 sleeps, 999 of them in place and the last parked by the step's limit.
func timerModel() (step func()) {
	env := NewEnv()
	sleepers(env, 1, -1)
	return func() { env.RunUntil(env.Now() + Millisecond) }
}

// sleepParkedModel: two processes sleeping 1 µs at a time in lockstep, so the
// other's wakeup is always due first and every sleep parks. A step is one
// sleep of each (schedule, park, deliver, resume).
func sleepParkedModel() (step func()) {
	env := NewEnv()
	sleepers(env, 2, -1)
	return func() { env.RunUntil(env.Now() + Microsecond) }
}

// sleepers spawns n processes that sleep 1 µs at a time in lockstep and take
// sleeps sleeps between them (sleeps < 0: forever). With n = 1 nothing else
// is due, so every sleep is taken in place; with n = 2 every sleep parks.
func sleepers(env *Env, n, sleeps int) {
	for i := 0; i < n; i++ {
		mine := (sleeps + i) / n
		env.Spawn("sleeper", func(p *Proc) {
			for j := 0; sleeps < 0 || j < mine; j++ {
				p.Sleep(Microsecond)
			}
		})
	}
}

// benchSleeps prices one Sleep: b.N of them between n sleepers, in one run.
func benchSleeps(b *testing.B, n int) {
	env := NewEnv()
	sleepers(env, n, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}

// handoffModel: a step puts one item that a blocked consumer receives.
func handoffModel() (step func()) {
	env := NewEnv()
	q := NewQueue[int](env, 0)
	env.Spawn("consumer", func(p *Proc) {
		for {
			q.Get(p)
		}
	})
	env.Run()
	return func() { q.TryPut(1); env.Run() }
}

// eventModel: a step fires the event a process waits on; the process then
// makes the next one.
func eventModel() (step func()) {
	env := NewEnv()
	var ev *Event
	env.Spawn("waiter", func(p *Proc) {
		for {
			ev = env.NewEvent()
			p.Wait(ev)
		}
	})
	env.Run()
	return func() { ev.Fire(); env.Run() }
}

// callbackModel: a step schedules one callback event and runs it.
func callbackModel() (step func()) {
	env := NewEnv()
	n := 0
	fn := func() { n++ }
	return func() { env.AtFunc(env.Now()+Microsecond, fn); env.Run() }
}

// spawnModel: a step spawns a process on a fresh Proc. Before it, the Proc
// the previous step's child finished on is taken off the idle list and its
// coroutine ended, as a kernel that never recycled would have done; a child
// that parked for good instead would cost the runtime a goroutine per step on
// top (its g is never freed for reuse).
func spawnModel() (step func()) {
	env := NewEnv()
	fn := func(*Proc) {}
	return func() {
		if p := env.idle; p != nil {
			env.idle, env.procs = nil, env.procs[:0]
			p.stop()
		}
		env.Spawn("child", fn)
		env.Run()
	}
}

// spawnRecycledModel: a step spawns a process that exits at once, on the Proc
// the previous step's left behind.
func spawnRecycledModel() (step func()) {
	env := NewEnv()
	fn := func(*Proc) {}
	return func() { env.Spawn("child", fn); env.Run() }
}

// BenchmarkTimer prices a sleep taken in place, BenchmarkSleepParked one that
// parks: the round trip through the heap that Sleep made before the fast path.
func BenchmarkTimer(b *testing.B)         { benchSleeps(b, 1) }
func BenchmarkSleepParked(b *testing.B)   { benchSleeps(b, 2) }
func BenchmarkHandoff(b *testing.B)       { benchSteps(b, handoffModel()) }
func BenchmarkEventFireWait(b *testing.B) { benchSteps(b, eventModel()) }
func BenchmarkCallbackEvent(b *testing.B) { benchSteps(b, callbackModel()) }
func BenchmarkSpawn(b *testing.B)         { benchSteps(b, spawnModel()) }
func BenchmarkSpawnRecycled(b *testing.B) { benchSteps(b, spawnRecycledModel()) }

func TestKernelAllocationCeilings(t *testing.T) {
	for _, tc := range []struct {
		name    string
		step    func()
		ceiling float64
	}{
		{"Sleep in place (a step: 1 ms of 1 µs sleeps)", timerModel(), 0},
		{"Sleep parked, round trip through the heap", sleepParkedModel(), 0},
		{"Queue put to get across two procs", handoffModel(), 0},
		{"Event fire to wait (the event itself)", eventModel(), 1},
		{"callback event", callbackModel(), 0},
		{"recycled Spawn, start to finish", spawnRecycledModel(), 0},
		{"fresh Spawn (set-up, not the op path: the Proc and its coroutine)", spawnModel(), 13},
	} {
		tc.step() // reach steady state: pools and rings filled
		if got := testing.AllocsPerRun(200, tc.step); got > tc.ceiling {
			t.Errorf("%s: %v allocations, ceiling %v", tc.name, got, tc.ceiling)
		}
	}
}
