package sim

import (
	"math/rand"
	"testing"
)

// poolSize counts the wakeups on env's free list.
func poolSize(env *Env) int {
	n := 0
	for w := env.freeW; w != nil; w = w.next {
		if !w.free {
			panic("live wakeup on the free list")
		}
		n++
	}
	return n
}

// TestWakeupPoolSurvivesTimeoutRaces races 10⁵ timed waits against their
// event or item, cycling through: the contender arriving first, arriving
// last (long after the waiter has moved on and its wakeups have been
// recycled and reissued), and photo finishes either way. Each side wins half
// of them. A recycled wakeup
// delivered to, or canceled by, a holder that should have let go of it
// would show up as a wrong outcome, a lost or duplicated item, or one of the
// kernel's own lifetime panics; and if wakeups were not recycled the pool
// would never fill.
func TestWakeupPoolSurvivesTimeoutRaces(t *testing.T) {
	const rounds = 100_000
	const budget = 10
	env := NewEnv()
	q := NewQueue[int](env, 0)
	eventWins, timeoutWins := 0, 0
	env.Spawn("waiter", func(p *Proc) {
		nextItem := 0 // items arrive, and must be received, in order
		for i := 0; i < rounds; i++ {
			// i%4 picks the race; odd rounds go to the timeout.
			//  0: the contender arrives first
			//  1: it arrives long after the waiter gave up and moved on
			//  2: a photo finish the contender wins — an event one tick
			//     early; an item at the very instant the timeout is due,
			//     handed over before the timeout's turn comes
			//  3: a photo finish the timeout wins — same instant, but the
			//     contender's turn comes after the timeout's
			wantEvent := i%2 == 0
			timed := i%8 < 4 // WaitTimeout on an event; else GetTimeout on the queue
			arrive := []Time{5, 25, budget, budget}[i%4]
			if timed && i%4 == 2 {
				arrive = budget - 1 // an event firing at the deadline instant always loses to the timer
			}
			// schedule runs fn at arrive from now; in race 3, from a callback
			// scheduled after the waiter's timeout is, so that it runs later.
			schedule := func(fn func()) {
				if i%4 == 3 {
					env.AtFunc(p.Now()+arrive-1, func() { env.AfterFunc(1, fn) })
				} else {
					env.AtFunc(p.Now()+arrive, fn)
				}
			}
			if timed {
				ev := env.NewEvent()
				schedule(ev.Fire)
				if got := p.WaitTimeout(ev, budget); got != wantEvent {
					t.Errorf("round %d: WaitTimeout = %v, want %v", i, got, wantEvent)
					return
				}
			} else {
				// Late items stay queued; take what the earlier rounds left.
				for {
					v, ok := q.TryGet()
					if !ok {
						break
					}
					if v != nextItem {
						t.Errorf("round %d: drained item %d, want %d", i, v, nextItem)
						return
					}
					nextItem++
				}
				schedule(func() { q.TryPut(i) })
				v, ok, timedOut := q.GetTimeout(p, budget)
				if ok != wantEvent || timedOut == wantEvent {
					t.Errorf("round %d: GetTimeout = (%d, %v, %v), want ok=%v", i, v, ok, timedOut, wantEvent)
					return
				}
				if ok {
					if v < nextItem {
						t.Errorf("round %d: received item %d twice", i, v)
						return
					}
					nextItem = v + 1
				}
			}
			if i%4 == 1 {
				// Be asleep — on a wakeup the abandoned wait just gave
				// back — when the latecomer lands.
				p.Sleep(2 * budget)
			}
			if wantEvent {
				eventWins++
			} else {
				timeoutWins++
			}
		}
	})
	env.Run()
	if eventWins != rounds/2 || timeoutWins != rounds/2 {
		t.Errorf("event won %d, timeout won %d, want %d each", eventWins, timeoutWins, rounds/2)
	}
	if len(env.heap) != 0 {
		t.Errorf("%d entries left on the heap", len(env.heap))
	}
	// Everything was recycled into a pool no larger than the few wakeups
	// ever outstanding at once.
	if n := poolSize(env); n == 0 || n > 16 {
		t.Errorf("free list holds %d wakeups, want 1..16", n)
	}
}

// The heap must hand back what is left in (at, seq) order after arbitrary
// removals from its middle, and every entry must know where it sits.
func TestHeapOrdersAfterRemovals(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	env := NewEnv()
	var live []*wakeup
	checkIndices := func() {
		for i, s := range env.heap {
			if s.w.index != i {
				t.Fatalf("entry at heap position %d thinks it is at %d", i, s.w.index)
			}
		}
	}
	for round := 0; round < 200; round++ {
		for i := 0; i < 1+rng.Intn(20); i++ {
			w := env.newWakeup(nil, nil, 0)
			env.push(Time(rng.Intn(50)), w) // few distinct times: seq breaks most ties
			live = append(live, w)
		}
		for i := 0; i < rng.Intn(10) && len(live) > 0; i++ {
			k := rng.Intn(len(live))
			env.remove(live[k].index)
			if live[k].index != -1 {
				t.Fatalf("removed entry still claims heap position %d", live[k].index)
			}
			live = append(live[:k], live[k+1:]...)
		}
		checkIndices()
	}
	if len(env.heap) != len(live) {
		t.Fatalf("heap holds %d entries, %d are live", len(env.heap), len(live))
	}
	prev := slot{at: -1}
	for len(env.heap) > 0 {
		top := env.heap[0]
		if !prev.before(top) {
			t.Fatalf("popped (%v, %d) after (%v, %d)", top.at, top.seq, prev.at, prev.seq)
		}
		prev = top
		env.remove(0)
		checkIndices()
	}
}
