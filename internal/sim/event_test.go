package sim

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// An Event is embedded in every request record four times, and the
// benchmark's host_bytes_per_op has a 2 % bound: the waiter ring costs the
// event one pointer, its tail, and no slice. The Event of 2caa2d8 was 48
// bytes, its Env and a waiter slice included (the 48-byte size class); then
// 24, a chain's first and last; this one is 16, the 16-byte class.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 16 {
		t.Errorf("Event is %d bytes, want 16 (24 at f0af065)", got)
	}
}

// One embedded event takes a waiter from each primitive that waits on
// events, in this order: Wait, WaitTimeout (whose timeout wins first, leaving
// a canceled wakeup in the middle of the chain), WaitEither and WaitAny. Its
// Fire wakes the live ones in the order they arrived. Each wait that named a
// second event leaves a canceled wakeup there, recycled when that one fires.
// The round runs twice on the same events, Init'ed after they fired: the
// second takes its waiters as the first did. A burst of sleepers fills the
// free list first, so a round draws every wakeup it uses off the list, and
// since each is recycled exactly once, the round leaves the list as long as
// it found it.
func TestEventWaiterChain(t *testing.T) {
	env := testEnv(t)
	var rec struct{ ev, other, another Event }
	var woke []string
	var free []int
	env.Spawn("driver", func(p *Proc) {
		for i := 0; i < 64; i++ {
			env.Spawn("sleeper", func(p *Proc) { p.Sleep(1) })
		}
		p.Sleep(2)
		free = append(free, poolSize(env))
		for round := 0; round < 2; round++ {
			rec.ev.Init()
			rec.other.Init()
			rec.another.Init()
			woke = woke[:0]
			env.Spawn("wait", func(p *Proc) {
				p.Wait(&rec.ev)
				woke = append(woke, "wait")
			})
			env.Spawn("timeout", func(p *Proc) {
				if p.WaitTimeout(&rec.ev, 5) {
					t.Errorf("round %d: WaitTimeout reports the event, want its timeout", round)
				}
				woke = append(woke, "timeout")
			})
			env.Spawn("either", func(p *Proc) {
				if !p.WaitEither(&rec.other, &rec.ev, 100) {
					t.Errorf("round %d: WaitEither reports its timeout, want the event", round)
				}
				woke = append(woke, "either")
			})
			env.Spawn("any", func(p *Proc) {
				if i := p.WaitAny(&rec.another, &rec.ev); i != 1 {
					t.Errorf("round %d: WaitAny = %d, want 1", round, i)
				}
				woke = append(woke, "any")
			})
			p.Sleep(10)
			rec.ev.Fire()
			p.Sleep(1)
			if want := []string{"timeout", "wait", "either", "any"}; !slices.Equal(woke, want) {
				t.Errorf("round %d: woke %v, want %v", round, woke, want)
			}
			rec.other.Fire()
			rec.another.Fire()
			p.Sleep(1)
			free = append(free, poolSize(env))
		}
	})
	env.Run()
	if len(free) != 3 || free[1] != free[0] || free[2] != free[0] {
		t.Errorf("free list before the rounds and after each: %v, want three equal lengths", free)
	}
	if env.Parked() != 0 {
		t.Errorf("%d processes still parked", env.Parked())
	}
}

// TestEventRingModel drives seeded random runs of Wait, WaitTimeout,
// WaitEither, WaitAny, Init and Fire on three events against a slice-based
// reference, which keeps each event's waiters as a slice of process ids in
// arrival order, canceled ones included until the event fires. Before every
// Fire the event's ring must hold one wakeup per entry of that slice, in its
// order, canceled exactly where the reference's process was already woken by
// something else, and each live one the entry's process's; after the Fire
// every canceled one is back in the pool and every live one scheduled. Every
// process must return when and how the reference says, in the order it says.
// Actions fall on multiples of 10 and timeouts 5 past one, so no timeout
// ties a Fire.
func TestEventRingModel(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		eventRingModel(t, seed, 300)
	}
}

// ringWake is one return from a wait: which process, when, and what woke it.
type ringWake struct {
	id  int
	at  Time
	how int // the event's index, howEither for WaitEither's event, or howTimeout
}

const (
	howTimeout = -1
	howEither  = -2
)

func eventRingModel(t *testing.T, seed int64, steps int) {
	const nev = 3
	rng := rand.New(rand.NewSource(seed))
	env := testEnv(t)
	var evs [nev]Event
	var got []ringWake
	running := map[*Proc]int{} // the id each process is running now

	// The reference.
	var (
		fired   [nev]bool
		lists   [nev][]int // waiters in arrival order, canceled ones included
		woken   []bool     // by process id: returned, or due to at this instant
		either  []bool     // by process id: waits in WaitEither
		timeout []Time     // by process id: when its timeout is due; 0 for none
		want    []ringWake
	)
	failed := func(step int, format string, args ...any) {
		t.Helper()
		t.Errorf("seed %d, step %d: "+format, append([]any{seed, step}, args...)...)
	}
	// Timeouts are due 5 past a step, and those due at one instant go in the
	// order they were scheduled, which is id order.
	wakeTimeouts := func(now Time) {
		for id, at := range timeout {
			if at != 0 && at < now && !woken[id] {
				woken[id] = true
				want = append(want, ringWake{id, at, howTimeout})
			}
		}
	}
	fire := func(step, e int) {
		var ring []*wakeup
		if tail := evs[e].tail; tail != nil {
			for w := tail.next; ; w = w.next {
				ring = append(ring, w)
				if w == tail {
					break
				}
			}
		}
		if len(ring) != len(lists[e]) {
			failed(step, "event %d has %d waiters, want %d", e, len(ring), len(lists[e]))
			return
		}
		canceled := make([]bool, len(ring))
		for i, w := range ring {
			id := lists[e][i]
			canceled[i] = w.canceled
			if w.canceled != woken[id] {
				failed(step, "event %d's waiter %d (process %d) canceled=%v, want %v", e, i, id, w.canceled, woken[id])
			} else if !w.canceled && running[w.p] != id {
				failed(step, "event %d's waiter %d is process %d's, want %d's", e, i, running[w.p], id)
			}
		}
		evs[e].Fire()
		if !fired[e] {
			for _, id := range lists[e] {
				if !woken[id] {
					woken[id] = true
					how := e
					if either[id] {
						how = howEither
					}
					want = append(want, ringWake{id, Time(10 * step), how})
				}
			}
		}
		fired[e], lists[e] = true, nil
		for i, w := range ring {
			if canceled[i] != w.free || !canceled[i] && w.index < 0 {
				failed(step, "after the Fire, event %d's waiter %d: canceled=%v free=%v scheduled=%v",
					e, i, canceled[i], w.free, w.index >= 0)
			}
		}
		if evs[e].tail != nil {
			failed(step, "event %d keeps waiters after its Fire", e)
		}
	}
	spawn := func(now Time) {
		id := len(woken)
		woken, either, timeout = append(woken, false), append(either, false), append(timeout, 0)
		a := rng.Intn(nev)
		b := (a + 1 + rng.Intn(nev-1)) % nev
		d := Time(10*rng.Intn(5) + 5)
		at := func(how int) {
			woken[id] = true
			want = append(want, ringWake{id, now, how})
		}
		on := func(es ...int) {
			for _, e := range es {
				lists[e] = append(lists[e], id)
			}
		}
		log := func(p *Proc, how int) { got = append(got, ringWake{id, p.Now(), how}) }
		switch rng.Intn(4) {
		case 0:
			if fired[a] {
				at(a)
			} else {
				on(a)
			}
			env.Spawn("wait", func(p *Proc) {
				running[p] = id
				p.Wait(&evs[a])
				log(p, a)
			})
		case 1:
			if fired[a] {
				at(a)
			} else {
				on(a)
				timeout[id] = now + d
			}
			env.Spawn("timeout", func(p *Proc) {
				running[p] = id
				how := a
				if !p.WaitTimeout(&evs[a], d) {
					how = howTimeout
				}
				log(p, how)
			})
		case 2:
			either[id] = true
			if fired[a] || fired[b] {
				at(howEither)
			} else {
				on(a, b)
				timeout[id] = now + d
			}
			env.Spawn("either", func(p *Proc) {
				running[p] = id
				how := howEither
				if !p.WaitEither(&evs[a], &evs[b], d) {
					how = howTimeout
				}
				log(p, how)
			})
		default:
			set := rng.Perm(nev)[:1+rng.Intn(nev)]
			first := -1
			for _, e := range set {
				if fired[e] {
					first = e
					break
				}
			}
			if first >= 0 {
				at(first)
			} else {
				on(set...)
			}
			env.Spawn("any", func(p *Proc) {
				running[p] = id
				ptrs := make([]*Event, len(set))
				for i, e := range set {
					ptrs[i] = &evs[e]
				}
				log(p, set[p.WaitAny(ptrs...)])
			})
		}
	}

	// One action a step; the last nev steps fire every event, so every
	// process has returned when the driver does.
	env.Spawn("driver", func(p *Proc) {
		for step := 0; step < steps+nev; step++ {
			wakeTimeouts(p.Now())
			switch r := rng.Intn(8); {
			case step >= steps:
				fire(step, step-steps)
			case r < 4:
				spawn(p.Now())
			case r < 6:
				fire(step, rng.Intn(nev))
			default:
				e := rng.Intn(nev)
				fired[e] = false
				evs[e].Init()
			}
			p.Sleep(10)
		}
	})
	env.Run()
	if !slices.Equal(got, want) {
		t.Errorf("seed %d: %d returns differ from the reference's %d:\n got  %v\n want %v", seed, len(got), len(want), got, want)
	}
	if n := env.Parked(); n != 0 {
		t.Errorf("seed %d: %d processes still parked", seed, n)
	}
}
