package sim

import (
	"fmt"
	"testing"
)

// fakeTB records what Drive and Stepper report instead of ending the test,
// and ends when end is called.
type fakeTB struct {
	failures []string
	cleanups []func()
}

func (f *fakeTB) Helper() {}
func (f *fakeTB) Fatalf(format string, args ...any) {
	f.failures = append(f.failures, fmt.Sprintf(format, args...))
}
func (f *fakeTB) Cleanup(fn func()) { f.cleanups = append(f.cleanups, fn) }
func (f *fakeTB) end() {
	for i := len(f.cleanups) - 1; i >= 0; i-- {
		f.cleanups[i]()
	}
}

// Drive fails its test naming exactly the drivers whose function has not
// returned. Parked cannot tell: it counts an engine loop parked for good, and
// not a driver whose sleep outlasts the limit.
func TestDriveNamesEveryDriverThatNeverReturned(t *testing.T) {
	sleep := func(d Time) func(p *Proc) { return func(p *Proc) { p.Sleep(d) } }
	for _, c := range []struct {
		name   string
		limit  Time
		rig    func(env *Env) []Driver
		want   string // what Drive reports; "" for no failure
		end    Time
		parked int // Env.Parked after the run
	}{
		{"returns", -1, func(env *Env) []Driver {
			return []Driver{{Name: "d", Fn: sleep(Microsecond)}}
		}, "", Microsecond, 0},
		{"parked on an event nothing fires", -1, func(env *Env) []Driver {
			return []Driver{{Name: "waiter", Fn: func(p *Proc) { p.Wait(env.NewEvent()) }}}
		}, "sim: drivers map[0:waiter] never returned (run ended at 0s)", 0, 1},
		{"parked on a queue get", -1, func(env *Env) []Driver {
			q := NewQueue[int](env, 0)
			return []Driver{{Name: "getter", Fn: func(p *Proc) { q.Get(p) }}}
		}, "sim: drivers map[0:getter] never returned (run ended at 0s)", 0, 1},
		{"two drivers, one returns", -1, func(env *Env) []Driver {
			ev := env.NewEvent()
			return []Driver{{Name: "returns", Fn: sleep(Millisecond)}, {Name: "parks", Fn: func(p *Proc) { p.Wait(ev) }}}
		}, "sim: drivers map[1:parks] never returned (run ended at 1ms)", Millisecond, 1},
		{"returns past an engine parked for good", -1, func(env *Env) []Driver {
			q := NewQueue[int](env, 0)
			env.Spawn("engine", func(p *Proc) {
				for {
					q.Get(p)
				}
			})
			return []Driver{{Name: "d", Fn: func(p *Proc) { q.TryPut(1); p.Sleep(Microsecond) }}}
		}, "", Microsecond, 1},
		{"returns within the limit", 5 * Microsecond, func(env *Env) []Driver {
			return []Driver{{Name: "d", Fn: sleep(Microsecond)}}
		}, "", 5 * Microsecond, 0},
		{"still sleeping at the limit", 5 * Microsecond, func(env *Env) []Driver {
			return []Driver{{Name: "late", Fn: sleep(Millisecond)}}
		}, "sim: drivers map[0:late] never returned (run ended at 5µs)", 5 * Microsecond, 0},
		{"started at At, past the limit", 5 * Microsecond, func(env *Env) []Driver {
			return []Driver{{Name: "now", Fn: sleep(0)}, {Name: "later", At: Millisecond, Fn: sleep(0)}}
		}, "sim: drivers map[1:later] never returned (run ended at 5µs)", 5 * Microsecond, 0},
		{"started at At, to idle", -1, func(env *Env) []Driver {
			return []Driver{{Name: "later", At: Millisecond, Fn: sleep(Microsecond)}}
		}, "", Millisecond + Microsecond, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			env := NewEnv()
			defer env.Close()
			var tb fakeTB
			end := DriveUntil(&tb, env, c.limit, c.rig(env)...)
			if got := fmt.Sprint(tb.failures); got != "["+c.want+"]" {
				t.Errorf("Drive reported %s, want [%s]", got, c.want)
			}
			if end != c.end || env.Parked() != c.parked {
				t.Errorf("the run ended at %v with %d parked, want %v and %d", end, env.Parked(), c.end, c.parked)
			}
		})
	}
	env := NewEnv()
	defer env.Close()
	var tb fakeTB
	if end := Drive(&tb, env, "one", sleep(Second)); end != Second || tb.failures != nil {
		t.Errorf("Drive: ended at %v with %q, want %v and no failure", end, tb.failures, Second)
	}
}

// Stepper's driver runs its body once a step and returns when its test ends;
// one parked for good fails the test naming it, and a step after the end
// panics naming it.
func TestStepperNamesADriverThatNeverReturned(t *testing.T) {
	for _, c := range []struct {
		name       string
		park       bool   // the body waits on an event nothing fires
		want       string // what Stepper reports at the end; "" for no failure
		runs, left int    // of body, in two steps; Env.Parked after the end
	}{
		{"returns", false, "", 2, 0},
		{"parks for good", true, "sim: driver stepped never returned (run ended at 1µs)", 1, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			env := NewEnv()
			defer env.Close()
			var tb fakeTB
			ev, runs := env.NewEvent(), 0
			step := Stepper(&tb, env, "stepped", func(p *Proc) {
				runs++
				if p.Sleep(Microsecond); c.park {
					p.Wait(ev)
				}
			})
			step()
			step()
			tb.end()
			if got := fmt.Sprint(tb.failures); got != "["+c.want+"]" || runs != c.runs || env.Parked() != c.left {
				t.Errorf("Stepper reported %s, body ran %d times, %d parked; want [%s], %d, %d", got, runs, env.Parked(), c.want, c.runs, c.left)
			}
			defer func() {
				if got, want := recover(), "sim: a step of driver stepped after its test ended"; got != want {
					t.Errorf("a step after the end panicked with %v, want %q", got, want)
				}
			}()
			step()
		})
	}
}
