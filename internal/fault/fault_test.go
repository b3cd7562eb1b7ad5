package fault

import (
	"testing"

	"hybridkv/internal/sim"
)

func TestZeroConfigInjectorIsInert(t *testing.T) {
	in := New(Config{Seed: 1})
	if in.Active() {
		t.Error("zero-config injector reports Active")
	}
	for i := 0; i < 1000; i++ {
		v := in.Transmit("a", "b", 100, sim.Time(i))
		if v.Drop || v.Duplicate || v.ExtraDelay != 0 {
			t.Fatalf("inert injector issued verdict %+v", v)
		}
	}
	if in.Drops+in.Dups+in.Spikes+in.LinkDrops != 0 {
		t.Error("inert injector counted faults")
	}
}

func TestDropProbabilityOneDropsEverything(t *testing.T) {
	in := New(Config{Seed: 1, Drop: 1})
	for i := 0; i < 100; i++ {
		if v := in.Transmit("a", "b", 100, 0); !v.Drop {
			t.Fatal("Drop=1 let a message through")
		}
	}
	if in.Drops != 100 {
		t.Errorf("Drops = %d, want 100", in.Drops)
	}
}

func TestSeededVerdictsAreDeterministic(t *testing.T) {
	run := func() []simVerdict {
		in := New(Config{Seed: 99, Drop: 0.1, Dup: 0.1, Spike: 0.1})
		out := make([]simVerdict, 0, 500)
		for i := 0; i < 500; i++ {
			v := in.Transmit("a", "b", 100, sim.Time(i))
			out = append(out, simVerdict{v.Drop, v.Duplicate, v.ExtraDelay})
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("verdict %d differs across identically-seeded runs", i)
		}
	}
	// And a different seed must differ somewhere.
	in := New(Config{Seed: 100, Drop: 0.1, Dup: 0.1, Spike: 0.1})
	same := true
	for i := range a {
		v := in.Transmit("a", "b", 100, sim.Time(i))
		if (simVerdict{v.Drop, v.Duplicate, v.ExtraDelay}) != a[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical verdict streams")
	}
}

type simVerdict struct {
	drop bool
	dup  bool
	del  sim.Time
}

func TestLinkDownWindow(t *testing.T) {
	in := New(Config{Seed: 1})
	in.AddLinkDown("srv", 100, 200)
	if !in.Active() {
		t.Error("injector with a window reports inactive")
	}
	cases := []struct {
		src, dst string
		at       sim.Time
		drop     bool
	}{
		{"cli", "srv", 99, false},  // before the window
		{"cli", "srv", 100, true},  // window start is inclusive
		{"srv", "cli", 150, true},  // outbound traffic dies too
		{"cli", "srv", 200, false}, // window end is exclusive
		{"cli", "other", 150, false},
	}
	for _, tc := range cases {
		if got := in.Transmit(tc.src, tc.dst, 10, tc.at).Drop; got != tc.drop {
			t.Errorf("Transmit(%s→%s @%d).Drop = %v, want %v", tc.src, tc.dst, tc.at, got, tc.drop)
		}
	}
	if in.LinkDrops != 2 {
		t.Errorf("LinkDrops = %d, want 2", in.LinkDrops)
	}
	if in.Drops != 0 {
		t.Errorf("LinkDown drops counted as random drops: %d", in.Drops)
	}
}

func TestAsymmetricPartitionDropsOneDirectionOnly(t *testing.T) {
	in := New(Config{Seed: 1})
	in.AddPartition("a", "b", 100, 200)
	if !in.Active() {
		t.Error("injector with a partition window reports inactive")
	}
	cases := []struct {
		src, dst string
		at       sim.Time
		drop     bool
	}{
		{"a", "b", 99, false},  // before the window
		{"a", "b", 100, true},  // window start is inclusive
		{"b", "a", 150, false}, // reverse direction keeps flowing
		{"a", "b", 199, true},
		{"a", "b", 200, false}, // window end is exclusive
		{"a", "c", 150, false}, // other destinations unaffected
		{"c", "b", 150, false}, // other sources unaffected
	}
	for _, tc := range cases {
		if got := in.Transmit(tc.src, tc.dst, 10, tc.at).Drop; got != tc.drop {
			t.Errorf("Transmit(%s→%s @%d).Drop = %v, want %v", tc.src, tc.dst, tc.at, got, tc.drop)
		}
	}
	if in.PartitionDrops != 2 {
		t.Errorf("PartitionDrops = %d, want 2", in.PartitionDrops)
	}
	if in.LinkDrops != 0 || in.Drops != 0 {
		t.Errorf("partition drops leaked into other counters: link=%d random=%d", in.LinkDrops, in.Drops)
	}
}

func TestSymmetricPartitionFromTwoDirWindows(t *testing.T) {
	in := New(Config{Seed: 1})
	in.AddPartition("a", "b", 0, 100)
	in.AddPartition("b", "a", 0, 100)
	if !in.Transmit("a", "b", 10, 50).Drop || !in.Transmit("b", "a", 10, 50).Drop {
		t.Error("two mirrored DirWindows did not cut both directions")
	}
}

func TestSpikeDelayDefaults(t *testing.T) {
	in := New(Config{Seed: 3, Spike: 1})
	v := in.Transmit("a", "b", 10, 0)
	if v.ExtraDelay != spikeDelay {
		t.Errorf("spike delay %v, want %v", v.ExtraDelay, spikeDelay)
	}
	if v.Drop {
		t.Error("spike verdict also dropped")
	}
	if in.Spikes != 1 {
		t.Errorf("Spikes = %d, want 1", in.Spikes)
	}
}
