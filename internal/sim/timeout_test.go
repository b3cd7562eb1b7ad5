package sim

import "testing"

func TestWaitTimeoutEventWins(t *testing.T) {
	env := NewEnv()
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
	env := NewEnv()
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
	env := NewEnv()
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
		name string
		// putAt < 0 means never put; closeAt < 0 means never close.
		putAt, closeAt Time
		budget         Time
		wantOK         bool
		wantTimedOut   bool
		wantAt         Time
	}{
		{"value before deadline", 30, -1, 100, true, false, 30},
		{"deadline before value", 500, -1, 100, false, true, 100},
		// The put runs at the deadline instant, ahead of the timeout's turn:
		// the item is handed over, and must not be lost to the timeout.
		{"value at the deadline instant", 100, -1, 100, true, false, 100},
		{"nothing ever arrives", -1, -1, 70, false, true, 70},
		{"zero budget empty queue", -1, -1, 0, false, true, 0},
		{"closed while waiting", -1, 40, 100, false, false, 40},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := NewEnv()
			q := NewQueue[int](env, 0)
			if tc.putAt >= 0 {
				env.AtFunc(tc.putAt, func() { q.TryPut(7) })
			}
			if tc.closeAt >= 0 {
				env.AtFunc(tc.closeAt, func() { q.Close() })
			}
			var v int
			var ok, timedOut bool
			var at Time
			env.Spawn("consumer", func(p *Proc) {
				v, ok, timedOut = q.GetTimeout(p, tc.budget)
				at = p.Now()
			})
			env.Run()
			if ok != tc.wantOK || timedOut != tc.wantTimedOut || at != tc.wantAt {
				t.Errorf("ok=%v timedOut=%v at=%v, want ok=%v timedOut=%v at=%v",
					ok, timedOut, at, tc.wantOK, tc.wantTimedOut, tc.wantAt)
			}
			if tc.wantOK && v != 7 {
				t.Errorf("value = %d, want 7", v)
			}
		})
	}
}

func TestGetTimeoutImmediateValue(t *testing.T) {
	env := NewEnv()
	q := NewQueue[int](env, 0)
	q.TryPut(1)
	env.Spawn("consumer", func(p *Proc) {
		v, ok, timedOut := q.GetTimeout(p, 100)
		if !ok || timedOut || v != 1 || p.Now() != 0 {
			t.Errorf("immediate get: v=%d ok=%v timedOut=%v at=%v", v, ok, timedOut, p.Now())
		}
	})
	env.Run()
}

func TestGetTimeoutThenNormalGetStillWorks(t *testing.T) {
	// A timed-out getter must not wedge the queue for later consumers.
	env := NewEnv()
	q := NewQueue[int](env, 0)
	var got int
	env.Spawn("consumer", func(p *Proc) {
		if _, ok, timedOut := q.GetTimeout(p, 10); ok || !timedOut {
			t.Errorf("first get: ok=%v timedOut=%v", ok, timedOut)
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
	env := NewEnv()
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
