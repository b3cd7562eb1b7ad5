package sim

import (
	"math/rand"
	"sort"
	"testing"
)

func TestClockStartsAtZero(t *testing.T) {
	e := NewEnv()
	if e.Now() != 0 {
		t.Fatalf("fresh env clock = %v, want 0", e.Now())
	}
	if got := e.Run(); got != 0 {
		t.Fatalf("empty Run ended at %v, want 0", got)
	}
}

func TestSleepAdvancesVirtualTime(t *testing.T) {
	e := NewEnv()
	var at Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(250 * Microsecond)
		at = p.Now()
	})
	end := e.Run()
	if at != 250*Microsecond {
		t.Errorf("woke at %v, want 250µs", at)
	}
	if end != 250*Microsecond {
		t.Errorf("run ended at %v, want 250µs", end)
	}
}

func TestNegativeSleepIsYield(t *testing.T) {
	e := NewEnv()
	ran := false
	e.Spawn("p", func(p *Proc) {
		p.Sleep(-5)
		ran = true
	})
	if e.Run() != 0 {
		t.Errorf("negative sleep advanced the clock")
	}
	if !ran {
		t.Errorf("process did not complete")
	}
}

func TestSequentialOrderingSameTimestamp(t *testing.T) {
	e := NewEnv()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Spawn("p", func(p *Proc) {
			p.Sleep(10 * Microsecond)
			order = append(order, i)
		})
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-timestamp wakeups out of spawn order: %v", order)
		}
	}
}

func TestSpawnAt(t *testing.T) {
	e := NewEnv()
	var at Time
	e.SpawnAt(40*Microsecond, "late", func(p *Proc) { at = p.Now() })
	e.Run()
	if at != 40*Microsecond {
		t.Errorf("SpawnAt started at %v, want 40µs", at)
	}
}

func TestSpawnFromWithinProcess(t *testing.T) {
	e := NewEnv()
	var childAt Time
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		e.Spawn("child", func(c *Proc) {
			c.Sleep(7 * Microsecond)
			childAt = c.Now()
		})
	})
	e.Run()
	if childAt != 12*Microsecond {
		t.Errorf("child finished at %v, want 12µs", childAt)
	}
}

func TestEventWakesAllWaiters(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	var woken []Time
	for i := 0; i < 3; i++ {
		e.Spawn("waiter", func(p *Proc) {
			p.Wait(ev)
			woken = append(woken, p.Now())
		})
	}
	e.Spawn("firer", func(p *Proc) {
		p.Sleep(100 * Microsecond)
		ev.Fire()
	})
	e.Run()
	if len(woken) != 3 {
		t.Fatalf("woke %d waiters, want 3", len(woken))
	}
	for _, w := range woken {
		if w != 100*Microsecond {
			t.Errorf("waiter woke at %v, want 100µs", w)
		}
	}
}

func TestWaitOnFiredEventReturnsImmediately(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	ev.Fire()
	var at Time = -1
	e.Spawn("p", func(p *Proc) {
		p.Wait(ev)
		at = p.Now()
	})
	e.Run()
	if at != 0 {
		t.Errorf("wait on fired event blocked until %v", at)
	}
}

func TestDoubleFireIsNoop(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	n := 0
	e.Spawn("w", func(p *Proc) { p.Wait(ev); n++ })
	e.Spawn("f", func(p *Proc) { ev.Fire(); ev.Fire() })
	e.Run()
	if n != 1 {
		t.Errorf("waiter ran %d times, want 1", n)
	}
}

func TestWaitTimeoutFires(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	var ok bool
	var at Time
	e.Spawn("w", func(p *Proc) {
		ok = p.WaitTimeout(ev, 50*Microsecond)
		at = p.Now()
	})
	e.Spawn("f", func(p *Proc) {
		p.Sleep(20 * Microsecond)
		ev.Fire()
	})
	e.Run()
	if !ok || at != 20*Microsecond {
		t.Errorf("WaitTimeout=(%v,%v), want (true,20µs)", ok, at)
	}
}

func TestWaitTimeoutExpires(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	var ok bool
	var at Time
	e.Spawn("w", func(p *Proc) {
		ok = p.WaitTimeout(ev, 50*Microsecond)
		at = p.Now()
	})
	e.Spawn("f", func(p *Proc) {
		p.Sleep(200 * Microsecond)
		ev.Fire()
	})
	e.Run()
	if ok || at != 50*Microsecond {
		t.Errorf("WaitTimeout=(%v,%v), want (false,50µs)", ok, at)
	}
}

func TestWaitAny(t *testing.T) {
	e := NewEnv()
	a, b := e.NewEvent(), e.NewEvent()
	var idx int
	var at Time
	e.Spawn("w", func(p *Proc) {
		idx = p.WaitAny(a, b)
		at = p.Now()
	})
	e.Spawn("f", func(p *Proc) {
		p.Sleep(30 * Microsecond)
		b.Fire()
		p.Sleep(30 * Microsecond)
		a.Fire()
	})
	e.Run()
	if idx != 1 || at != 30*Microsecond {
		t.Errorf("WaitAny=(%d,%v), want (1,30µs)", idx, at)
	}
}

func TestAnyOf(t *testing.T) {
	e := NewEnv()
	a, b, c := e.NewEvent(), e.NewEvent(), e.NewEvent()
	anyEv := e.AnyOf(a, b, c)
	var anyAt Time = -1
	e.Spawn("watchAny", func(p *Proc) { p.Wait(anyEv); anyAt = p.Now() })
	e.Spawn("f", func(p *Proc) {
		p.Sleep(10 * Microsecond)
		b.Fire()
		p.Sleep(10 * Microsecond)
		a.Fire()
		p.Sleep(10 * Microsecond)
		c.Fire()
	})
	e.Run()
	if anyAt != 10*Microsecond {
		t.Errorf("AnyOf fired at %v, want 10µs", anyAt)
	}
	if !e.AnyOf(a).Fired() {
		t.Errorf("AnyOf(fired) should be immediately fired")
	}
}

func TestQueueFIFO(t *testing.T) {
	e := NewEnv()
	q := NewQueue[int](e, 0)
	var got []int
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			q.Put(p, i)
			p.Sleep(Microsecond)
		}
	})
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			v, ok := q.Get(p)
			if !ok {
				t.Errorf("queue closed early")
				return
			}
			got = append(got, v)
		}
	})
	e.Run()
	if len(got) != 5 {
		t.Fatalf("got %d items, want 5", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order: %v", got)
		}
	}
}

func TestQueueCapacityBlocksPutter(t *testing.T) {
	e := NewEnv()
	q := NewQueue[int](e, 2)
	var putDone Time
	e.Spawn("producer", func(p *Proc) {
		q.Put(p, 1)
		q.Put(p, 2)
		q.Put(p, 3) // must block until the consumer frees a slot
		putDone = p.Now()
	})
	e.Spawn("consumer", func(p *Proc) {
		p.Sleep(70 * Microsecond)
		if _, ok := q.Get(p); !ok {
			t.Errorf("get failed")
		}
	})
	e.Run()
	if putDone != 70*Microsecond {
		t.Errorf("third Put completed at %v, want 70µs (after consumer)", putDone)
	}
}

func TestQueueGetBlocksUntilPut(t *testing.T) {
	e := NewEnv()
	q := NewQueue[string](e, 0)
	var v string
	var at Time
	e.Spawn("consumer", func(p *Proc) {
		v, _ = q.Get(p)
		at = p.Now()
	})
	e.Spawn("producer", func(p *Proc) {
		p.Sleep(15 * Microsecond)
		q.Put(p, "hello")
	})
	e.Run()
	if v != "hello" || at != 15*Microsecond {
		t.Errorf("Get=(%q,%v), want (hello,15µs)", v, at)
	}
}

func TestQueueCloseDrains(t *testing.T) {
	e := NewEnv()
	q := NewQueue[int](e, 0)
	q.TryPut(1)
	q.TryPut(2)
	var got []int
	var closedOK bool
	e.Spawn("consumer", func(p *Proc) {
		for {
			v, ok := q.Get(p)
			if !ok {
				closedOK = true
				return
			}
			got = append(got, v)
		}
	})
	e.Spawn("closer", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		q.Close()
	})
	e.Run()
	if len(got) != 2 || !closedOK {
		t.Errorf("drained %v closed=%v, want [1 2] true", got, closedOK)
	}
}

func TestQueueCloseWakesBlockedGetter(t *testing.T) {
	e := NewEnv()
	q := NewQueue[int](e, 0)
	var ok = true
	e.Spawn("consumer", func(p *Proc) { _, ok = q.Get(p) })
	e.Spawn("closer", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		q.Close()
	})
	e.Run()
	if ok {
		t.Errorf("Get on closed empty queue returned ok=true")
	}
}

func TestQueueTryVariants(t *testing.T) {
	e := NewEnv()
	q := NewQueue[int](e, 1)
	if _, ok := q.TryGet(); ok {
		t.Errorf("TryGet on empty queue succeeded")
	}
	if !q.TryPut(7) {
		t.Errorf("TryPut on empty queue failed")
	}
	if q.TryPut(8) {
		t.Errorf("TryPut on full queue succeeded")
	}
	v, ok := q.TryGet()
	if !ok || v != 7 {
		t.Errorf("TryGet=(%d,%v), want (7,true)", v, ok)
	}
}

func TestQueueDirectHandoffToBlockedGetter(t *testing.T) {
	e := NewEnv()
	q := NewQueue[int](e, 1)
	var v int
	e.Spawn("consumer", func(p *Proc) { v, _ = q.Get(p) })
	e.Spawn("producer", func(p *Proc) {
		p.Sleep(Microsecond)
		q.TryPut(42)
		if q.Len() != 0 {
			t.Errorf("value buffered instead of handed off")
		}
	})
	e.Run()
	if v != 42 {
		t.Errorf("handoff delivered %d, want 42", v)
	}
}

func TestResourceLimitsConcurrency(t *testing.T) {
	e := NewEnv()
	r := NewResource(e, 2)
	active, maxActive := 0, 0
	for i := 0; i < 6; i++ {
		e.Spawn("user", func(p *Proc) {
			r.Acquire(p)
			active++
			if active > maxActive {
				maxActive = active
			}
			p.Sleep(10 * Microsecond)
			active--
			r.Release()
		})
	}
	end := e.Run()
	if maxActive != 2 {
		t.Errorf("max concurrency %d, want 2", maxActive)
	}
	if end != 30*Microsecond {
		t.Errorf("6 jobs × 10µs at depth 2 ended at %v, want 30µs", end)
	}
}

func TestResourceFIFOAndN(t *testing.T) {
	e := NewEnv()
	r := NewResource(e, 3)
	var order []string
	e.Spawn("hold", func(p *Proc) {
		r.AcquireN(p, 3)
		p.Sleep(10 * Microsecond)
		r.ReleaseN(3)
	})
	e.Spawn("big", func(p *Proc) {
		p.Sleep(Microsecond)
		r.AcquireN(p, 2)
		order = append(order, "big")
		p.Sleep(10 * Microsecond)
		r.ReleaseN(2)
	})
	e.Spawn("small", func(p *Proc) {
		p.Sleep(2 * Microsecond)
		r.Acquire(p)
		order = append(order, "small")
		r.Release()
	})
	e.Run()
	if len(order) != 2 || order[0] != "big" {
		// strict FIFO: the 2-unit waiter is at the head, the 1-unit waiter
		// must not jump the line even though a unit might fit it earlier.
		t.Errorf("acquisition order %v, want [big small]", order)
	}
}

func TestResourceAccounting(t *testing.T) {
	e := NewEnv()
	r := NewResource(e, 4)
	if !r.TryAcquireN(3) {
		t.Fatalf("TryAcquireN(3) failed on fresh resource")
	}
	if r.InUse() != 3 {
		t.Errorf("InUse=%d, want 3", r.InUse())
	}
	if r.TryAcquireN(2) {
		t.Errorf("TryAcquireN(2) succeeded with 1 free")
	}
	r.ReleaseN(3)
	if r.InUse() != 0 {
		t.Errorf("InUse=%d after full release", r.InUse())
	}
}

func TestRunUntilStopsAtLimit(t *testing.T) {
	e := NewEnv()
	hits := 0
	e.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(10 * Microsecond)
			hits++
		}
	})
	at := e.RunUntil(45 * Microsecond)
	if at != 45*Microsecond {
		t.Errorf("RunUntil returned %v, want 45µs", at)
	}
	if hits != 4 {
		t.Errorf("ticker ran %d times by 45µs, want 4", hits)
	}
	// Resume to completion.
	end := e.Run()
	if end != 1000*Microsecond || hits != 100 {
		t.Errorf("resume ended at %v with %d ticks, want 1ms/100", end, hits)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEnv()
	if got := e.RunUntil(time5ms()); got != time5ms() {
		t.Errorf("RunUntil on idle env = %v, want 5ms", got)
	}
}

func time5ms() Time { return 5 * Millisecond }

func TestAliveTracksProcesses(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	e.Spawn("blocked-forever", func(p *Proc) { p.Wait(ev) })
	e.Spawn("finishes", func(p *Proc) { p.Sleep(Microsecond) })
	e.Run()
	if e.Alive() != 1 {
		t.Errorf("Alive=%d after run, want 1 (the event waiter)", e.Alive())
	}
}

// TestDeterminism is a property test: an arbitrary random program of sleeps,
// events, queues and resources must produce an identical trace on every run
// with the same seed.
func TestDeterminism(t *testing.T) {
	trace := func(seed int64) []Time {
		rng := rand.New(rand.NewSource(seed))
		e := NewEnv()
		q := NewQueue[int](e, 4)
		r := NewResource(e, 3)
		ev := e.NewEvent()
		var out []Time
		n := 20
		for i := 0; i < n; i++ {
			d := Time(rng.Intn(100)) * Microsecond
			switch rng.Intn(4) {
			case 0:
				e.Spawn("s", func(p *Proc) {
					p.Sleep(d)
					out = append(out, p.Now())
				})
			case 1:
				e.Spawn("q", func(p *Proc) {
					p.Sleep(d)
					q.Put(p, i)
					v, _ := q.Get(p)
					_ = v
					out = append(out, p.Now())
				})
			case 2:
				e.Spawn("r", func(p *Proc) {
					r.Acquire(p)
					p.Sleep(d)
					r.Release()
					out = append(out, p.Now())
				})
			case 3:
				e.Spawn("e", func(p *Proc) {
					if d > 50*Microsecond {
						ev.Fire()
					} else {
						p.WaitTimeout(ev, d)
					}
					out = append(out, p.Now())
				})
			}
		}
		e.Run()
		return out
	}
	for seed := int64(1); seed <= 10; seed++ {
		a := trace(seed)
		b := trace(seed)
		if len(a) != len(b) {
			t.Fatalf("seed %d: trace lengths differ: %d vs %d", seed, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: trace diverges at %d: %v vs %v", seed, i, a[i], b[i])
			}
		}
	}
}

// TestClockMonotonic is a property test: observed wake times never decrease.
func TestClockMonotonic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := NewEnv()
	var stamps []Time
	for i := 0; i < 50; i++ {
		d := Time(rng.Intn(1000)) * Microsecond
		e.Spawn("p", func(p *Proc) {
			p.Sleep(d)
			stamps = append(stamps, p.Now())
			p.Sleep(Time(rng.Intn(10)) * Microsecond)
			stamps = append(stamps, p.Now())
		})
	}
	e.Run()
	if !sort.SliceIsSorted(stamps, func(i, j int) bool { return stamps[i] < stamps[j] }) {
		// Equal stamps are fine; strict decreases are not.
		for i := 1; i < len(stamps); i++ {
			if stamps[i] < stamps[i-1] {
				t.Fatalf("clock went backwards: %v after %v", stamps[i], stamps[i-1])
			}
		}
	}
}
