package fault

import (
	"testing"

	"hybridkv/internal/sim"
	"hybridkv/internal/simnet"
)

// Arming AddCorrupt must not perturb a single RNG draw: the drop/dup/spike
// verdict stream of a corruption-armed injector is bit-identical to the
// same-seed injector without it. This is the zero-extra-RNG-draw contract
// that keeps faulted runs replayable against their uncorrupted twins.
func TestAddCorruptDoesNotPerturbOtherFaults(t *testing.T) {
	base := New(Config{Seed: 7, Drop: 0.2, Dup: 0.1, Spike: 0.1})
	armed := New(Config{Seed: 7, Drop: 0.2, Dup: 0.1, Spike: 0.1})
	armed.AddCorrupt(5, 0.3)
	sawCorrupt := false
	for i := 0; i < 1000; i++ {
		vb := base.Transmit("a", "b", 100+i, sim.Time(i))
		va := armed.Transmit("a", "b", 100+i, sim.Time(i))
		if vb.Drop != va.Drop || vb.Duplicate != va.Duplicate || vb.ExtraDelay != va.ExtraDelay {
			t.Fatalf("message %d: corruption arming changed another verdict: %+v vs %+v", i, vb, va)
		}
		if vb.Corrupt {
			t.Fatalf("message %d: unarmed injector issued a Corrupt verdict", i)
		}
		if va.Corrupt {
			sawCorrupt = true
		}
	}
	if !sawCorrupt {
		t.Error("rate-0.3 corruption never bit in 1000 messages")
	}
	if base.Drops != armed.Drops || base.Dups != armed.Dups || base.Spikes != armed.Spikes {
		t.Errorf("fault counts diverged: base {%d %d %d} armed {%d %d %d}",
			base.Drops, base.Dups, base.Spikes, armed.Drops, armed.Dups, armed.Spikes)
	}
	if armed.Corrupts == 0 {
		t.Error("Corrupts stat not counted")
	}
}

// The corrupt decision is a pure function of (seed, message coordinates):
// the same seed replays the exact same bite pattern, and a different seed
// diverges somewhere.
func TestAddCorruptDeterministicPerSeed(t *testing.T) {
	pattern := func(seed int64) []bool {
		in := New(Config{Seed: 1})
		in.AddCorrupt(seed, 0.3)
		out := make([]bool, 500)
		for i := range out {
			out[i] = in.Transmit("s1", "s2", 64+i, sim.Time(i*100)).Corrupt
		}
		return out
	}
	a, b := pattern(42), pattern(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("message %d: same-seed corrupt verdicts differ", i)
		}
	}
	c := pattern(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different corruption seeds produced identical bite patterns")
	}
	// AddCorrupt alone makes the injector active.
	in := New(Config{Seed: 1})
	if in.Active() {
		t.Fatal("zero-config injector active")
	}
	in.AddCorrupt(1, 0.5)
	if !in.Active() {
		t.Error("corruption-armed injector reports inactive")
	}
}

// corruptToken is a test payload that knows how to present itself garbled.
type corruptToken struct{ v int }

func (c corruptToken) CorruptCopy() any { return corruptToken{v: -c.v} }

// The fabric delivers a Corruptible payload's CorruptCopy when the verdict
// says Corrupt, and delivers non-Corruptible payloads intact — corrupting a
// frame the receiver would CRC-drop is indistinguishable from Drop, which is
// already modeled.
func TestFabricDeliversCorruptCopy(t *testing.T) {
	env := sim.NewEnv()
	fab := simnet.New(env, simnet.FDRInfiniBand())
	a, b := fab.AddNode("a"), fab.AddNode("b")
	in := New(Config{Seed: 1})
	in.AddCorrupt(9, 1.0) // every message bites
	fab.SetFaults(in)
	var got []any
	b.SetReceiver(func(m *simnet.Message) { got = append(got, m.Payload) })
	env.Spawn("tx", func(p *sim.Proc) {
		a.Send(p, "b", 64, corruptToken{v: 7})
		a.Send(p, "b", 64, "plain-string") // not Corruptible
	})
	env.Run()
	if len(got) != 2 {
		t.Fatalf("delivered %d messages, want 2", len(got))
	}
	if got[0] != (corruptToken{v: -7}) {
		t.Errorf("corruptible payload delivered as %v, want its CorruptCopy", got[0])
	}
	if got[1] != "plain-string" {
		t.Errorf("non-corruptible payload mutated: %v", got[1])
	}
	if fab.Corrupted != 1 {
		t.Errorf("Fabric.Corrupted = %d, want 1 (only the Corruptible payload counts)", fab.Corrupted)
	}
}
