package sim

import "testing"

// The kernel's allocation table and host-cost microbenchmarks. Each model
// below is long-lived: building it spawns its processes, and each call of the
// step it returns performs one primitive and runs the env until it is idle
// again; the two sleep models' steps run the env to a limit instead, as their
// sleepers are never idle. ns/op is host time, not virtual time; the ceilings
// are what keeps every layer above allocation-free per event.
//
//	go test ./internal/sim -run '^$' -bench . -benchmem

// timerModel: one process sleeping 1 µs at a time with nothing else due, so
// its sleeps take their wakeups in place. A step runs the env 1 ms further:
// 1000 sleeps, 999 of them in place and the last parked by the step's limit.
func timerModel(tb testing.TB) (step func()) {
	env := testEnv(tb)
	sleepers(env, 1, -1)
	return func() { env.RunUntil(env.Now() + Millisecond) }
}

// sleepParkedModel: two processes sleeping 1 µs at a time in lockstep, so the
// other's wakeup is always due first and every sleep parks. A step is one
// sleep of each (schedule, park, deliver, resume).
func sleepParkedModel(tb testing.TB) (step func()) {
	env := testEnv(tb)
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
	env := testEnv(b)
	sleepers(env, n, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}

// handoffModel: a step puts one item that a blocked consumer receives.
func handoffModel(tb testing.TB) (step func()) {
	env := testEnv(tb)
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
func eventModel(tb testing.TB) (step func()) {
	env := testEnv(tb)
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
func callbackModel(tb testing.TB) (step func()) {
	env := testEnv(tb)
	n := 0
	fn := func() { n++ }
	return func() { env.AtFunc(env.Now()+Microsecond, fn); env.Run() }
}

// spawnModel: a step spawns a process on a fresh Proc. Before it, the Proc
// the previous step's child finished on is taken off the idle list and its
// coroutine ended, as a kernel that never recycled would have done; a child
// that parked for good instead would cost the runtime a goroutine per step on
// top (its g is never freed for reuse).
func spawnModel(tb testing.TB) (step func()) {
	env := testEnv(tb)
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
func spawnRecycledModel(tb testing.TB) (step func()) {
	env := testEnv(tb)
	fn := func(*Proc) {}
	return func() { env.Spawn("child", fn); env.Run() }
}

// BenchmarkTimer prices a sleep taken in place, BenchmarkSleepParked one that
// parks: the round trip through the heap that Sleep made before the fast path.
// They time one sleep each, where allocTable's Timer and SleepParked steps
// are a millisecond of sleeps and one sleep of each of two sleepers.
func BenchmarkTimer(b *testing.B)       { benchSleeps(b, 1) }
func BenchmarkSleepParked(b *testing.B) { benchSleeps(b, 2) }

// allocTable is the kernel's line of make allocs: one row per primitive, its
// ceiling the allocations one step may make. An event fired to a waiter is
// the event itself (1); a fresh Spawn is set-up, not the op path: the Proc
// and its coroutine (13).
var allocTable = []struct {
	name    string
	model   func(testing.TB) (step func())
	ceiling float64
}{
	{"Timer", timerModel, 0},
	{"SleepParked", sleepParkedModel, 0},
	{"Handoff", handoffModel, 0},
	{"EventFireWait", eventModel, 1},
	{"CallbackEvent", callbackModel, 0},
	{"Spawn", spawnModel, 13},
	{"SpawnRecycled", spawnRecycledModel, 0},
}

// TestKernelAllocationCeilings logs each row's name=count for make allocs.
func TestKernelAllocationCeilings(t *testing.T) {
	for _, row := range allocTable {
		t.Run(row.name, func(t *testing.T) {
			step := row.model(t)
			step() // reach steady state: pools and rings filled
			got := testing.AllocsPerRun(200, step)
			if t.Logf("%s=%v", row.name, got); got > row.ceiling {
				t.Errorf("%s=%v, ceiling %v", row.name, got, row.ceiling)
			}
		})
	}
}

// BenchmarkAllocs runs allocTable's rows as sub-benchmarks.
func BenchmarkAllocs(b *testing.B) {
	for _, row := range allocTable {
		b.Run(row.name, func(b *testing.B) {
			step := row.model(b)
			step()
			b.ReportAllocs()
			for b.Loop() {
				step()
			}
		})
	}
}
