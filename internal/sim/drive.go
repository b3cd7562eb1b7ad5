package sim

// TB is what Drive needs of a test; *testing.T and *testing.B have it.
type TB interface {
	Helper()
	Fatalf(format string, args ...any)
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
