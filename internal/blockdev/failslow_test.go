package blockdev

import (
	"testing"

	"hybridkv/internal/sim"
)

// slowSpec is one AddSlow call.
type slowSpec struct {
	From, To sim.Time
	Mult     float64
	Floor    sim.Time
}

// timedRead measures one 32 KiB read at the head of a fresh run on a SATA
// device carrying the given slow windows.
func timedRead(t testing.TB, windows []slowSpec) sim.Time {
	env := sim.NewEnv()
	d := New(env, SATA(), 1<<30)
	for _, w := range windows {
		d.AddSlow(w.From, w.To, w.Mult, w.Floor)
	}
	d.Persist(0, 32*1024, 32*1024, "v")
	return sim.Drive(t, env, "io", func(p *sim.Proc) { d.ReadAt(p, 0, 32*1024) })
}

func TestFailSlowWindowStretchesServiceTime(t *testing.T) {
	base := SATA().ReadTime(32 * 1024)
	win := slowSpec{From: 0, To: sim.Second, Mult: 8}
	if got, want := timedRead(t, []slowSpec{win}), sim.Time(float64(base)*8); got != want {
		t.Errorf("8× window: read took %v, want %v (base %v)", got, want, base)
	}
	// A floor above the multiplied time wins: degraded drives whose
	// per-command cost collapses to a fixed stall.
	win.Floor = 10 * sim.Millisecond
	if got := timedRead(t, []slowSpec{win}); got != 10*sim.Millisecond {
		t.Errorf("floored window: read took %v, want the 10ms floor", got)
	}
	// Mult ≤ 1 is treated as no multiplier; only the floor acts.
	if got := timedRead(t, []slowSpec{{From: 0, To: sim.Second, Mult: 0.5, Floor: 5 * sim.Millisecond}}); got != 5*sim.Millisecond {
		t.Errorf("floor-only window: read took %v, want 5ms", got)
	}
}

func TestFailSlowWindowBoundsAndCounting(t *testing.T) {
	base := SATA().ReadTime(32 * 1024)
	// A window that closed before the command leaves timing untouched.
	if got := timedRead(t, []slowSpec{{From: 0, To: 0, Mult: 100}}); got != base {
		t.Errorf("expired window: read took %v, want unfaulted %v", got, base)
	}

	env := sim.NewEnv()
	d := New(env, SATA(), 1<<30)
	d.AddSlow(0, base+1, 4, 0)
	d.Persist(0, 32*1024, 32*1024, "v")
	d.Persist(1<<20, 32*1024, 32*1024, "w")
	end := sim.Drive(t, env, "io", func(p *sim.Proc) {
		d.ReadAt(p, 0, 32*1024)     // starts inside the window
		d.ReadAt(p, 1<<20, 32*1024) // starts after it closes
	})
	if want := sim.Time(float64(base)*4) + base; end != want {
		t.Errorf("elapsed %v, want one slowed + one clean read = %v", end, want)
	}
	if d.SlowedIOs != 1 {
		t.Errorf("SlowedIOs = %d, want 1", d.SlowedIOs)
	}
}

// TestFailSlowOverlapTakesWorstAndReplays: overlapping windows yield the
// single worst service time, and — with no RNG anywhere in the path — two
// identically-scheduled runs land on the same virtual-time trace.
func TestFailSlowOverlapTakesWorstAndReplays(t *testing.T) {
	base := SATA().ReadTime(32 * 1024)
	wins := []slowSpec{
		{From: 0, To: sim.Second, Mult: 2},
		{From: 0, To: sim.Second, Mult: 6},
	}
	if got, want := timedRead(t, wins), sim.Time(float64(base)*6); got != want {
		t.Errorf("overlap: read took %v, want the worst window's %v (not the sum)", got, want)
	}
	if a, b := timedRead(t, wins), timedRead(t, wins); a != b {
		t.Errorf("identically-scheduled runs diverged: %v vs %v", a, b)
	}
}
