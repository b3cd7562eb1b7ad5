package workload

import (
	"math"

	"hybridkv/internal/sim"
)

// Arrival schedules shape request arrival over virtual time: drivers call
// Think(now) between operations instead of sleeping a constant, so the
// same op stream can arrive steadily, spike as a flash crowd, or swell and
// ebb diurnally. The schedule modulates the *rate* (think time is the
// reciprocal), keeping the op mix and key distribution untouched.

// Schedule selects the arrival shape.
type Schedule int

const (
	// Steady arrives at the base rate throughout.
	Steady Schedule = iota
	// FlashCrowd multiplies the rate by Spike inside the burst window —
	// the celebrity-key scenario: normal traffic, then everyone at once.
	FlashCrowd
	// Diurnal modulates the rate sinusoidally over Period between the
	// base rate (peak) and Trough times it (quietest point).
	Diurnal
)

// Arrival is one arrival schedule instance.
type Arrival struct {
	// Schedule selects the shape.
	Schedule Schedule
	// Base is the steady-state think time between a worker's operations.
	Base sim.Time

	// Spike is the rate multiplier inside the flash-crowd window (≥ 1);
	// BurstStart/BurstLen place the window on the virtual clock, relative
	// to the same origin as the now passed to Think.
	Spike                float64
	BurstStart, BurstLen sim.Time

	// Period is the diurnal cycle length; Trough is the rate fraction at
	// the quietest point, in (0, 1]. The cycle peaks at now = Period/4
	// (sin phase), so a run shorter than one Period still sees both flanks.
	Period sim.Time
	Trough float64
}

// Think returns the inter-operation think time at virtual time now.
func (a Arrival) Think(now sim.Time) sim.Time {
	base := a.Base
	if base <= 0 {
		return 0
	}
	switch a.Schedule {
	case FlashCrowd:
		spike := a.Spike
		if spike < 1 {
			spike = 1
		}
		if now >= a.BurstStart && now < a.BurstStart+a.BurstLen {
			return sim.Time(float64(base) / spike)
		}
		return base
	case Diurnal:
		if a.Period <= 0 {
			return base
		}
		trough := a.Trough
		if trough <= 0 || trough > 1 {
			trough = 0.25
		}
		phase := 2 * math.Pi * float64(now) / float64(a.Period)
		// Rate swings between trough (sin = -1) and 1 (sin = +1).
		rate := trough + (1-trough)*(0.5+0.5*math.Sin(phase))
		return sim.Time(float64(base) / rate)
	default:
		return base
	}
}

// InBurst reports whether now falls inside a flash-crowd window. Drivers
// use it to couple burst arrival with burst *targeting* (the flash crowd
// asks for the celebrity key, not uniformly more of everything). Always
// false for other schedules.
func (a Arrival) InBurst(now sim.Time) bool {
	return a.Schedule == FlashCrowd && now >= a.BurstStart && now < a.BurstStart+a.BurstLen
}
