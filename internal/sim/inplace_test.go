package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// A sleep whose wakeup is certain to be popped next takes it in place
// (Env.inPlace). These tests hold that to the round trip it replaces: the
// same program, with the fast path on and with every sleep parked
// (ParkEverySleep), must give the same trace to the seq.

// sleepModel runs five workers through seeded random steps over every
// primitive — Sleep, WaitUntil (past instants too) and Yield beside event,
// queue and resource waits, callback events and spawned children — with most
// delays drawn from 0..4 ns, so that ties only seq decides are common, and
// one in eight from 5..24 ns. The driver advances the env in RunUntil chunks
// of 1..9 ns, so a limit often falls inside a sleep, puts to the queue from
// outside between chunks, and closes the env after the last one with
// processes parked; each worker's deferred note records its unwinding. It
// returns the (now, seq, proc, tag) trace, the kernel counts, and how many
// sleeps a chunk's limit cut. The rng is shared and drawn from in execution
// order: one reordering anywhere changes everything after it.
func sleepModel(seed int64, parkAll bool) (trace []string, counts Counts, cut int) {
	env := NewEnv()
	if parkAll {
		env.ParkEverySleep()
	}
	rng := rand.New(rand.NewSource(seed))
	d := func() Time {
		if rng.Intn(8) == 0 {
			return Time(5 + rng.Intn(20))
		}
		return Time(rng.Intn(5))
	}
	note := func(proc string, tag int) {
		trace = append(trace, fmt.Sprintf("%d %d %s %d", env.now, env.seq, proc, tag))
	}
	chunk := 0 // RunUntil calls returned so far
	sleep := func(p *Proc, d Time) {
		before := chunk
		p.Sleep(d)
		if chunk != before {
			cut++
		}
	}
	q := NewQueue[int](env, 0)
	slot := NewResource(env, 1) // held from a take to a callback's release
	res := NewResource(env, 2)
	for w := 0; w < 5; w++ {
		name := fmt.Sprint("w", w)
		env.Spawn(name, func(p *Proc) {
			defer note(name, -1)
			for step := 0; ; step++ {
				op := rng.Intn(12)
				tag := op
				switch op {
				case 0:
					sleep(p, d())
				case 1:
					p.WaitUntil(env.Now() + d() - 2)
				case 2:
					p.Yield()
				case 3:
					ev := env.NewEvent()
					env.AtFunc(env.Now()+d(), ev.Fire)
					p.Wait(ev)
				case 4:
					ev := env.NewEvent()
					env.AtFunc(env.Now()+d(), ev.Fire)
					if p.WaitTimeout(ev, d()) {
						tag += 100
					}
				case 5:
					evs := []*Event{env.NewEvent(), env.NewEvent(), env.NewEvent()}
					for _, ev := range evs {
						env.AtFunc(env.Now()+d(), ev.Fire)
					}
					tag += 100 * p.WaitAny(evs...)
				case 6:
					// Every Get starts its own putter, so workers steal from
					// each other but none starves.
					v, nap := step, d()
					env.SpawnAt(env.Now()+d(), name+".put", func(hp *Proc) {
						sleep(hp, nap)
						q.TryPut(v)
						note(hp.Name(), v)
					})
					v, _ = q.Get(p)
					tag += 100 * v
				case 7:
					v := step
					env.AtFunc(env.Now()+d(), func() { q.TryPut(v) })
					v, ok := q.GetTimeout(p, d())
					if !ok {
						v = -1
					}
					tag += 100 * v
				case 8:
					slot.Acquire(p)
					env.AtFunc(env.Now()+d(), slot.Release)
				case 9:
					res.Acquire(p)
					sleep(p, d())
					res.Release()
				case 10:
					a, b := d(), d()
					env.Spawn(name+".child", func(cp *Proc) {
						sleep(cp, a)
						cp.WaitUntil(cp.Now() + b)
						cp.Yield()
						note(cp.Name(), step)
					})
				case 11:
					env.AtFunc(env.Now()+d(), func() { note(name+".cb", step) })
				}
				note(name, tag)
			}
		})
	}
	for env.Now() < 800 {
		env.RunUntil(env.Now() + Time(1+rng.Intn(9)))
		chunk++
		if rng.Intn(4) == 0 {
			q.TryPut(-chunk)
		}
		note("run", chunk)
	}
	note("close", env.Alive())
	env.Close()
	return trace, env.Counts(), cut
}

func TestInPlaceSleepsTraceLikeParkedOnes(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		fast, on, cut := sleepModel(seed, false)
		parked, off, _ := sleepModel(seed, true)
		if len(parked) < 2000 || cut == 0 || on.InPlace == 0 {
			t.Fatalf("seed %d: %d steps, %d sleeps cut by a limit, %d in place: the model exercises too little",
				seed, len(parked), cut, on.InPlace)
		}
		for i := range parked {
			if i >= len(fast) || fast[i] != parked[i] {
				t.Fatalf("seed %d: traces part at step %d of %d (now seq proc tag):\n parked:   %v\n in place: %v",
					seed, i, len(parked), parked[max(0, i-2):i+1], fast[max(0, i-2):min(i+1, len(fast))])
			}
		}
		if len(fast) != len(parked) {
			t.Fatalf("seed %d: %d steps in place, %d parked", seed, len(fast), len(parked))
		}
		// Each sleep taken in place is one resume the round trip made.
		if off.InPlace != 0 || off.Resumes != on.Resumes+on.InPlace || off.Callbacks != on.Callbacks {
			t.Errorf("seed %d: counts in place %+v, parked %+v", seed, on, off)
		}
	}
}

// countsModel is small enough to count by hand. a starts and sleeps to 1 µs
// (parked: b's start is due first), is resumed, sleeps to 2 µs (in place: the
// limit), then to 3 µs (parked: past the limit, so the first RunUntil stops
// at 2 µs), is resumed by the second and fires ev. b starts and waits for ev,
// is resumed at 3 µs, then sleeps 0 and yields (both in place: only the
// callback at 10 µs is left). With every sleep parked, each of a's and b's
// four sleeps is a resume instead.
func countsModel(parkAll bool) Counts {
	env := NewEnv()
	if parkAll {
		env.ParkEverySleep()
	}
	ev := env.NewEvent()
	env.Spawn("a", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(Microsecond)
		}
		ev.Fire()
	})
	env.Spawn("b", func(p *Proc) {
		p.Wait(ev)
		p.Sleep(0)
		p.Yield()
	})
	env.AtFunc(10*Microsecond, func() {})
	env.RunUntil(2 * Microsecond)
	env.Run()
	env.Close()
	return env.Counts()
}

func TestKernelCounts(t *testing.T) {
	for _, tc := range []struct {
		parkAll bool
		want    Counts
	}{
		{false, Counts{Resumes: 5, Callbacks: 1, InPlace: 3}},
		{true, Counts{Resumes: 8, Callbacks: 1, InPlace: 0}},
	} {
		if got := countsModel(tc.parkAll); got != tc.want {
			t.Errorf("every sleep parked %v: counts %+v, want %+v", tc.parkAll, got, tc.want)
		}
	}
}
