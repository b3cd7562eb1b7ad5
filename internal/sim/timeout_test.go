package sim

import "testing"

func TestWaitTimeoutEventWins(t *testing.T) {
	env := testEnv(t)
	ev := env.NewEvent()
	env.AtFunc(50, func() { ev.Fire() })
	var fired bool
	var at Time
	env.Spawn("waiter", func(p *Proc) {
		fired = p.WaitTimeout(ev, 200)
		at = p.Now()
	})
	env.Run()
	if !fired || at != 50 {
		t.Errorf("fired=%v at=%v, want event win at t=50", fired, at)
	}
	// The canceled timeout arm must not advance the clock past the event.
	if env.Now() != 50 {
		t.Errorf("env ends at %v, want 50: canceled timeout advanced the clock", env.Now())
	}
}

func TestWaitTimeoutTimeoutWins(t *testing.T) {
	env := testEnv(t)
	ev := env.NewEvent()
	var fired bool
	var at Time
	env.Spawn("waiter", func(p *Proc) {
		fired = p.WaitTimeout(ev, 80)
		at = p.Now()
	})
	env.Run()
	if fired || at != 80 {
		t.Errorf("fired=%v at=%v, want timeout at t=80", fired, at)
	}
}

func TestWaitTimeoutNonPositiveBudget(t *testing.T) {
	env := testEnv(t)
	ev := env.NewEvent()
	env.Spawn("waiter", func(p *Proc) {
		if p.WaitTimeout(ev, 0) {
			t.Error("WaitTimeout(0) on unfired event returned true")
		}
		if p.Now() != 0 {
			t.Errorf("zero-budget wait advanced the clock to %v", p.Now())
		}
		ev.Fire()
		if !p.WaitTimeout(ev, 0) {
			t.Error("WaitTimeout(0) on fired event returned false")
		}
	})
	env.Run()
}

func TestGetTimeoutTable(t *testing.T) {
	cases := []struct {
		name   string
		putAt  Time // < 0: never put
		budget Time
		wantOK bool
		wantAt Time
	}{
		{"value before deadline", 30, 100, true, 30},
		{"deadline before value", 500, 100, false, 100},
		// The put runs at the deadline instant, ahead of the timeout's turn:
		// the item is handed over, and must not be lost to the timeout.
		{"value at the deadline instant", 100, 100, true, 100},
		{"nothing ever arrives", -1, 70, false, 70},
		{"zero budget empty queue", -1, 0, false, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := testEnv(t)
			q := NewQueue[int](env, 0)
			if tc.putAt >= 0 {
				env.AtFunc(tc.putAt, func() { q.TryPut(7) })
			}
			var v int
			var ok bool
			var at Time
			env.Spawn("consumer", func(p *Proc) {
				v, ok = q.GetTimeout(p, tc.budget)
				at = p.Now()
			})
			env.Run()
			if ok != tc.wantOK || at != tc.wantAt {
				t.Errorf("ok=%v at=%v, want ok=%v at=%v", ok, at, tc.wantOK, tc.wantAt)
			}
			if tc.wantOK && v != 7 {
				t.Errorf("value = %d, want 7", v)
			}
		})
	}
}

func TestGetTimeoutImmediateValue(t *testing.T) {
	env := testEnv(t)
	q := NewQueue[int](env, 0)
	q.TryPut(1)
	env.Spawn("consumer", func(p *Proc) {
		v, ok := q.GetTimeout(p, 100)
		if !ok || v != 1 || p.Now() != 0 {
			t.Errorf("immediate get: v=%d ok=%v at=%v", v, ok, p.Now())
		}
	})
	env.Run()
}

func TestGetTimeoutThenNormalGetStillWorks(t *testing.T) {
	// A timed-out getter must not wedge the queue for later consumers.
	env := testEnv(t)
	q := NewQueue[int](env, 0)
	var got int
	env.Spawn("consumer", func(p *Proc) {
		if _, ok := q.GetTimeout(p, 10); ok {
			t.Error("first get: ok=true, want a timeout")
		}
		v, ok := q.Get(p)
		if !ok {
			t.Error("second get failed")
		}
		got = v
	})
	env.AtFunc(60, func() { q.TryPut(9) })
	env.Run()
	if got != 9 {
		t.Errorf("second get = %d, want 9", got)
	}
}

func TestWaitAnyReturnsFirstIndex(t *testing.T) {
	env := testEnv(t)
	evs := []*Event{env.NewEvent(), env.NewEvent(), env.NewEvent()}
	env.AtFunc(30, func() { evs[1].Fire() })
	env.AtFunc(90, func() { evs[2].Fire() })
	var idx int
	var at Time
	env.Spawn("waiter", func(p *Proc) {
		idx = p.WaitAny(evs...)
		at = p.Now()
	})
	env.Run()
	if idx != 1 || at != 30 {
		t.Errorf("WaitAny = %d at %v, want 1 at 30", idx, at)
	}
}

// TestWaitEither: either event wakes the waiter, and so does the timeout; an
// event that has already fired returns at once. What did not wake the waiter
// goes back to the pool: the timeout at once, a wakeup canceled on an event
// as soon as that event fires.
func TestWaitEither(t *testing.T) {
	for _, tc := range []struct {
		name         string
		fireA, fireB Time // 0: not before the wait ends
		want         bool
		at           Time
	}{
		{"a fires", 30, 0, true, 30},
		{"b fires", 0, 30, true, 30},
		{"b fires first", 50, 30, true, 30},
		{"timeout", 0, 0, false, 100},
	} {
		env := testEnv(t)
		a, b := env.NewEvent(), env.NewEvent()
		if tc.fireA > 0 {
			env.AtFunc(tc.fireA, a.Fire)
		}
		if tc.fireB > 0 {
			env.AtFunc(tc.fireB, b.Fire)
		}
		var got bool
		var at Time
		var canceled []*wakeup
		env.Spawn("waiter", func(p *Proc) {
			got, at = p.WaitEither(a, b, 100), p.Now()
			for _, s := range env.heap {
				if s.w.p == p {
					t.Errorf("%s: a wakeup of the waiter is still scheduled", tc.name)
				}
			}
			for _, ev := range []*Event{a, b} {
				if !ev.Fired() {
					if w := ev.tail; w == nil || !w.canceled {
						t.Errorf("%s: unfired event holds %+v, want the canceled wakeup", tc.name, w)
					}
					canceled = append(canceled, ev.tail)
				}
			}
		})
		env.Run()
		if got != tc.want || at != tc.at {
			t.Errorf("%s: WaitEither = %v at %v, want %v at %v", tc.name, got, at, tc.want, tc.at)
		}
		a.Fire()
		b.Fire()
		env.Run()
		for _, w := range canceled {
			if !w.free {
				t.Errorf("%s: a canceled wakeup is not back in the pool after its event fired", tc.name)
			}
		}
	}

	env := testEnv(t)
	a, b := env.NewEvent(), env.NewEvent()
	b.Fire()
	env.Spawn("waiter", func(p *Proc) {
		if !p.WaitEither(a, b, 100) || p.Now() != 0 {
			t.Errorf("WaitEither on a fired event: returned at %v, want true at once", p.Now())
		}
		if p.WaitEither(a, env.NewEvent(), 0) {
			t.Error("WaitEither with no budget and nothing fired returned true")
		}
	})
	env.Run()
	if a.tail != nil {
		t.Error("WaitEither that returned at once left a waiter behind")
	}
}
