package fault

import (
	"testing"

	"hybridkv/internal/sim"
)

func TestSlowWindowDelaysBothDirectionsAndScales(t *testing.T) {
	in := New(Config{Seed: 1})
	in.AddSlow("srv", 100, 200, 30*sim.Microsecond, 3*sim.Microsecond)
	if !in.Active() {
		t.Error("injector with a slow window reports inactive")
	}
	cases := []struct {
		src, dst string
		size     int
		at       sim.Time
		delay    sim.Time
	}{
		{"cli", "srv", 1024, 99, 0},                     // before the window
		{"cli", "srv", 1024, 100, 33 * sim.Microsecond}, // start inclusive: floor + 1KiB
		{"srv", "cli", 4096, 150, 42 * sim.Microsecond}, // outbound limps too: floor + 4KiB
		{"cli", "srv", 0, 150, 30 * sim.Microsecond},    // zero-size still pays the floor
		{"cli", "srv", 1024, 200, 0},                    // end exclusive
		{"cli", "other", 1 << 20, 150, 0},               // unrelated nodes untouched
	}
	for _, tc := range cases {
		v := in.Transmit(tc.src, tc.dst, tc.size, tc.at)
		if v.ExtraDelay != tc.delay {
			t.Errorf("Transmit(%s→%s size=%d @%d).ExtraDelay = %v, want %v",
				tc.src, tc.dst, tc.size, tc.at, v.ExtraDelay, tc.delay)
		}
		if v.Drop || v.Duplicate {
			t.Errorf("slow window dropped or duplicated %s→%s @%d", tc.src, tc.dst, tc.at)
		}
	}
	if in.Slowed != 3 {
		t.Errorf("Slowed = %d, want 3", in.Slowed)
	}
}

// TestOverlappingSlowWindowsTakeWorst: stacked schedules — or a message
// whose source AND destination both limp — charge the single worst window,
// never the sum, so symmetric degradation is not double-billed.
func TestOverlappingSlowWindowsTakeWorst(t *testing.T) {
	in := New(Config{Seed: 1})
	in.AddSlow("a", 0, 100, 10*sim.Microsecond, 0)
	in.AddSlow("b", 0, 100, 25*sim.Microsecond, 0)
	if d := in.Transmit("a", "b", 64, 50).ExtraDelay; d != 25*sim.Microsecond {
		t.Errorf("both-endpoints-limping delay = %v, want the worst window's 25µs", d)
	}
	// One message crossing two windows still counts once.
	if in.Slowed != 1 {
		t.Errorf("Slowed = %d, want 1", in.Slowed)
	}
}

// TestSlowWindowConsumesNoRNG: slow-window delays are schedule-driven, not
// drawn — an injector with probabilistic faults must produce the exact
// same drop/dup stream with and without a slow window installed, which is
// what makes a limping-node run replayable against its healthy twin.
func TestSlowWindowConsumesNoRNG(t *testing.T) {
	verdicts := func(slow bool) []simVerdict {
		in := New(Config{Seed: 7, Drop: 0.2, Dup: 0.2})
		if slow {
			in.AddSlow("b", 0, 1000, 5*sim.Microsecond, 0)
		}
		out := make([]simVerdict, 0, 300)
		for i := 0; i < 300; i++ {
			v := in.Transmit("a", "b", 100, sim.Time(i))
			out = append(out, simVerdict{v.Drop, v.Duplicate, 0})
		}
		return out
	}
	plain, slowed := verdicts(false), verdicts(true)
	for i := range plain {
		if plain[i] != slowed[i] {
			t.Fatalf("verdict %d: drop/dup stream diverged once a slow window was added", i)
		}
	}
}
