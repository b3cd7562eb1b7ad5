package sim

// TB is what Drive and Stepper need of a test; *testing.T and *testing.B
// have it.
type TB interface {
	Helper()
	Fatalf(format string, args ...any)
	Cleanup(func())
}

// Driver is a test's driver process: Fn, spawned as Name at At (SpawnAt's rule).
type Driver struct {
	Name string
	At   Time
	Fn   func(p *Proc)
}

// Drive is DriveUntil to idle with one driver.
func Drive(t TB, env *Env, name string, fn func(p *Proc)) Time {
	t.Helper()
	return DriveUntil(t, env, -1, Driver{Name: name, Fn: fn})
}

// DriveUntil spawns the drivers, runs env to limit (idle if < 0) and fails t
// naming each whose Fn has not returned; Parked would count engine loops too.
func DriveUntil(t TB, env *Env, limit Time, drivers ...Driver) Time {
	t.Helper()
	open := make(map[int]string) // by spawn order; fmt prints it in key order
	for i, d := range drivers {
		open[i] = d.Name
		env.SpawnAt(d.At, d.Name, func(p *Proc) { d.Fn(p); delete(open, i) })
	}
	if env.RunUntil(limit); len(open) > 0 {
		t.Fatalf("sim: drivers %v never returned (run ended at %v)", open, env.Now())
	}
	return env.Now()
}

// Stepper spawns a driver that parks between steps and returns its step: one
// run of body, then env run to idle. When t ends the driver returns, or t
// fails naming it as DriveUntil does; a step after that panics.
func Stepper(t TB, env *Env, name string, body func(p *Proc)) (step func()) {
	kick, open, ended := NewQueue[bool](env, 0), true, false
	env.Spawn(name, func(p *Proc) {
		for more, _ := kick.Get(p); more; more, _ = kick.Get(p) {
			body(p)
		}
		open = false
	})
	t.Cleanup(func() {
		ended = true
		kick.TryPut(false)
		if env.Run(); open {
			t.Fatalf("sim: driver %s never returned (run ended at %v)", name, env.Now())
		}
	})
	return func() {
		if ended {
			panic("sim: a step of driver " + name + " after its test ended")
		}
		kick.TryPut(true)
		env.Run()
	}
}
