package workload

import (
	"testing"

	"hybridkv/internal/sim"
)

func TestFlashCrowdSpikesInsideWindow(t *testing.T) {
	a := Arrival{
		Base:  80 * sim.Microsecond,
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
