package sim

import (
	"slices"
	"testing"
	"unsafe"
)

// An Event is embedded in every request record three times, and the
// benchmark's host_bytes_per_op has a 2 % bound: the waiter chain costs the
// event two pointers and no slice. The parent commit's (2caa2d8) Event was
// 48 bytes, its Env and a waiter slice included (the 48-byte size class);
// this one is the 24-byte class on its own.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 24 {
		t.Errorf("Event is %d bytes, was 48", got)
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
	env := NewEnv()
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
