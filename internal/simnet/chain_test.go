package simnet

import (
	"testing"

	"hybridkv/internal/sim"
)

// TestTransmitChainInstants pins the NIC transmit engine's timing: two
// messages posted back to back to an idle NIC, a third posted while the first
// is on the wire, then — each to an idle NIC again — one the injector drops
// and one it duplicates. Every Sent and every delivery lands at the instant
// the cost model gives by hand: a message leaves its NIC SerializeTime after
// the later of its post and the previous message's Sent, and arrives
// PropDelay + RecvCPU after that (a duplicate one RecvCPU later still). The
// engine is callback events only: adding nodes starts no process, and the
// fabric resumes none — the only resumes are the watchers', a start and a
// Sent wakeup each.
func TestTransmitChainInstants(t *testing.T) {
	env := sim.NewEnv()
	f := New(env, FDRInfiniBand())
	a, b := f.AddNode("a"), f.AddNode("b")
	if n := env.Alive(); n != 0 {
		t.Fatalf("adding two nodes left %d processes alive, want 0", n)
	}
	f.SetFaults(&scriptedInjector{verdicts: []Verdict{{}, {}, {}, {Drop: true}, {Duplicate: true}}})
	spec := FDRInfiniBand()
	ser := spec.SerializeTime
	arrive := PropDelay + spec.RecvCPU

	sizes := []int{6000, 12000, 3000, 600, 1200}
	posts := []sim.Time{0, 0, 500 * sim.Nanosecond, 10 * sim.Microsecond, 20 * sim.Microsecond}
	sent := make([]sim.Time, len(sizes))
	var delivered []struct {
		id int
		at sim.Time
	}
	b.SetReceiver(func(m *Message) {
		delivered = append(delivered, struct {
			id int
			at sim.Time
		}{m.Payload.(int), env.Now()})
	})
	for i := range sizes {
		env.AtFunc(posts[i], func() {
			out := a.Post("b", sizes[i], i)
			env.Spawn("watch", func(p *sim.Proc) {
				p.Wait(out.Sent)
				sent[i] = p.Now()
			})
		})
	}
	env.Run()

	s0 := ser(sizes[0])
	s1 := s0 + ser(sizes[1])
	s2 := s1 + ser(sizes[2]) // posted at 500 ns, while message 0 was on the wire
	s3 := posts[3] + ser(sizes[3])
	s4 := posts[4] + ser(sizes[4])
	for i, want := range []sim.Time{s0, s1, s2, s3, s4} {
		if sent[i] != want {
			t.Errorf("message %d: Sent at %v, want %v", i, sent[i], want)
		}
	}
	type at = struct {
		id int
		at sim.Time
	}
	want := []at{{0, s0 + arrive}, {1, s1 + arrive}, {2, s2 + arrive}, {4, s4 + arrive}, {4, s4 + arrive + spec.RecvCPU}}
	if len(delivered) != len(want) {
		t.Fatalf("deliveries %v, want %v", delivered, want)
	}
	for i := range want {
		if delivered[i] != want[i] {
			t.Errorf("delivery %d: message %d at %v, want message %d at %v", i, delivered[i].id, delivered[i].at, want[i].id, want[i].at)
		}
	}
	if f.MsgCount != 5 || f.Dropped != 1 {
		t.Errorf("MsgCount %d, Dropped %d: want 5 and 1", f.MsgCount, f.Dropped)
	}
	if got, watchers := env.Counts().Resumes, int64(len(sizes)); got != 2*watchers {
		t.Errorf("%d process resumes, want %d: the %d watchers' starts and Sent wakeups, none of the fabric's", got, 2*watchers, watchers)
	}
	if n := env.Alive(); n != 0 {
		t.Errorf("%d processes alive after the run, want 0", n)
	}
}
