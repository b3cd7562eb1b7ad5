package simnet

import (
	"testing"

	"hybridkv/internal/sim"
)

// scriptedInjector returns pre-programmed verdicts in message order.
type scriptedInjector struct {
	verdicts []Verdict
	n        int
}

func (si *scriptedInjector) Transmit(src, dst string, size int, now sim.Time) Verdict {
	if si.n >= len(si.verdicts) {
		return Verdict{}
	}
	v := si.verdicts[si.n]
	si.n++
	return v
}

func TestFaultDropLosesDeliveryButFiresSent(t *testing.T) {
	env, f, a, b := rdmaPair(t)
	f.SetFaults(&scriptedInjector{verdicts: []Verdict{{Drop: true}}})
	delivered := 0
	b.SetReceiver(func(m *Message) { delivered++ })
	var sentFired bool
	sim.Drive(t, env, "s", func(p *sim.Proc) {
		out := a.Post("b", 4096, nil)
		p.Wait(out.Sent)
		sentFired = true
	})
	if delivered != 0 {
		t.Errorf("dropped message delivered %d times", delivered)
	}
	if !sentFired {
		t.Error("sender's Sent event did not fire for a dropped message")
	}
	if f.Dropped != 1 {
		t.Errorf("Fabric.Dropped = %d, want 1", f.Dropped)
	}
	if f.MsgCount != 1 {
		t.Errorf("MsgCount = %d: drops happen after send accounting", f.MsgCount)
	}
}

func TestFaultDuplicateDeliversTwice(t *testing.T) {
	env, f, a, b := rdmaPair(t)
	f.SetFaults(&scriptedInjector{verdicts: []Verdict{{Duplicate: true}}})
	var times []sim.Time
	b.SetReceiver(func(m *Message) { times = append(times, env.Now()) })
	sim.Drive(t, env, "s", func(p *sim.Proc) { a.Post("b", 4096, nil) })
	if len(times) != 2 {
		t.Fatalf("duplicated message delivered %d times, want 2", len(times))
	}
	if gap, want := times[1]-times[0], FDRInfiniBand().RecvCPU; gap != want {
		t.Errorf("duplicate trails original by %v, want one RecvCPU (%v)", gap, want)
	}
}

func TestFaultExtraDelayPostponesDelivery(t *testing.T) {
	const spike = 250 * sim.Microsecond
	measure := func(v Verdict) sim.Time {
		env := sim.NewEnv()
		f := New(env, FDRInfiniBand())
		a, b := f.AddNode("a"), f.AddNode("b")
		f.SetFaults(&scriptedInjector{verdicts: []Verdict{v}})
		var at sim.Time
		b.SetReceiver(func(m *Message) { at = env.Now() })
		sim.Drive(t, env, "s", func(p *sim.Proc) { a.Post("b", 4096, nil) })
		return at
	}
	clean := measure(Verdict{})
	spiked := measure(Verdict{ExtraDelay: spike})
	if spiked-clean != spike {
		t.Errorf("spiked delivery %v vs clean %v: delta %v, want %v",
			spiked, clean, spiked-clean, spike)
	}
}

func TestNilFaultsLeaveTrafficUntouched(t *testing.T) {
	env, f, a, b := rdmaPair(t)
	f.SetFaults(&scriptedInjector{verdicts: []Verdict{{Drop: true}}})
	f.SetFaults(nil) // disarm
	delivered := 0
	b.SetReceiver(func(m *Message) { delivered++ })
	sim.Drive(t, env, "s", func(p *sim.Proc) { a.Post("b", 64, nil) })
	if delivered != 1 || f.Dropped != 0 {
		t.Errorf("delivered=%d dropped=%d after disarming faults", delivered, f.Dropped)
	}
}
