package workload

import (
	"testing"

	"hybridkv/internal/sim"
)

func TestSteadyThinkIsConstant(t *testing.T) {
	a := Arrival{Schedule: Steady, Base: 30 * sim.Microsecond}
	for _, now := range []sim.Time{0, sim.Millisecond, sim.Second} {
		if got := a.Think(now); got != 30*sim.Microsecond {
			t.Errorf("Think(%v) = %v, want 30µs", now, got)
		}
	}
}

func TestFlashCrowdSpikesInsideWindow(t *testing.T) {
	a := Arrival{
		Schedule: FlashCrowd, Base: 80 * sim.Microsecond,
		Spike: 8, BurstStart: 10 * sim.Millisecond, BurstLen: 5 * sim.Millisecond,
	}
	if got := a.Think(sim.Millisecond); got != 80*sim.Microsecond {
		t.Errorf("pre-burst think %v, want base", got)
	}
	if got := a.Think(12 * sim.Millisecond); got != 10*sim.Microsecond {
		t.Errorf("in-burst think %v, want base/8 = 10µs", got)
	}
	if got := a.Think(20 * sim.Millisecond); got != 80*sim.Microsecond {
		t.Errorf("post-burst think %v, want base", got)
	}
	if a.InBurst(sim.Millisecond) || !a.InBurst(12*sim.Millisecond) {
		t.Errorf("InBurst window wrong")
	}
	// The window is half-open: the end instant is back to base rate.
	if a.InBurst(15 * sim.Millisecond) {
		t.Errorf("InBurst true at the window end")
	}
}

func TestDiurnalSwingsBetweenPeakAndTrough(t *testing.T) {
	a := Arrival{
		Schedule: Diurnal, Base: 100 * sim.Microsecond,
		Period: 40 * sim.Millisecond, Trough: 0.25,
	}
	// Peak rate at Period/4 (sin = +1): think = base.
	peak := a.Think(10 * sim.Millisecond)
	// Trough at 3*Period/4 (sin = -1): think = base/0.25 = 4×base.
	trough := a.Think(30 * sim.Millisecond)
	if peak != 100*sim.Microsecond {
		t.Errorf("peak think %v, want base", peak)
	}
	if trough < 390*sim.Microsecond || trough > 410*sim.Microsecond {
		t.Errorf("trough think %v, want ≈4×base", trough)
	}
	// One full period later the shape repeats.
	if again := a.Think(50 * sim.Millisecond); again != peak {
		t.Errorf("periodicity broken: %v vs %v", again, peak)
	}
}
