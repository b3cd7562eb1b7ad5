package sim

import "testing"

// Host-cost microbenchmarks and allocation ceilings for the kernel's
// primitives. ns/op is host time per primitive, not virtual time; the
// ceilings are what keeps every layer above allocation-free per event.
//
//	go test ./internal/sim -run '^$' -bench . -benchmem

// Each model below is long-lived: building it spawns its processes, and each
// call of the step it returns performs one primitive and runs the env until
// it is idle again.

func benchSteps(b *testing.B, step func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// timerModel: one process sleeping 1 µs at a time; a step is one Sleep
// round trip (schedule, park, deliver, resume).
func timerModel() (step func()) {
	env := NewEnv()
	env.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(Microsecond)
		}
	})
	return func() { env.RunUntil(env.Now() + Microsecond) }
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

func BenchmarkTimer(b *testing.B)         { benchSteps(b, timerModel()) }
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
		{"Sleep round trip", timerModel(), 0},
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
