package workload

import "hybridkv/internal/sim"

// Arrival is a flash-crowd arrival schedule: drivers call Think(now) between
// operations instead of sleeping a constant, so the same op stream arrives at
// the base rate, then Spike times faster inside the burst window — the
// celebrity-key scenario: normal traffic, then everyone at once. The schedule
// modulates the *rate* (think time is the reciprocal), keeping the op mix and
// key distribution untouched.
type Arrival struct {
	// Base is the steady-state think time between a worker's operations.
	Base sim.Time

	// Spike is the rate multiplier inside the flash-crowd window (≥ 1);
	// BurstStart/BurstLen place the window on the virtual clock, relative
	// to the same origin as the now passed to Think.
	Spike                float64
	BurstStart, BurstLen sim.Time
}

// Think returns the inter-operation think time at virtual time now.
func (a Arrival) Think(now sim.Time) sim.Time {
	base := a.Base
	if base <= 0 {
		return 0
	}
	if a.InBurst(now) {
		return sim.Time(float64(base) / max(a.Spike, 1))
	}
	return base
}

// InBurst reports whether now falls inside the flash-crowd window. Drivers
// use it to couple burst arrival with burst *targeting* (the flash crowd
// asks for the celebrity key, not uniformly more of everything).
func (a Arrival) InBurst(now sim.Time) bool {
	return now >= a.BurstStart && now < a.BurstStart+a.BurstLen
}
