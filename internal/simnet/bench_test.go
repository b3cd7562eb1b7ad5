package simnet

import (
	"testing"
	"unsafe"

	"hybridkv/internal/sim"
)

// messageModel returns a step that posts one 64-byte message and runs the
// fabric until it has been delivered: tx-queue handoff, serialization
// sleep, Sent, the delivery callback event, Delivered, the receiver.
func messageModel() (step func()) {
	env := sim.NewEnv()
	f := New(env, FDRInfiniBand())
	a, b := f.AddNode("a"), f.AddNode("b")
	n := 0
	b.SetReceiver(func(*Message) { n++ })
	env.Run() // no driver: the fabric's start-up is all that runs
	return func() {
		before := n
		a.Post("b", 64, nil)
		env.Run() // no driver: the post is a callback chain, and its allocations are what is counted
		if n != before+1 {
			panic("message model: the post was not delivered once")
		}
	}
}

// allocTable is the fabric's line of make allocs. One message is one
// allocation: the Flight is everything it carries (Message, Outgoing, both
// events, delivery state) and the delivery callback event too.
var allocTable = []struct {
	name    string
	model   func() (step func())
	ceiling float64
}{
	{"Message", messageModel, 1},
}

// TestMessageAllocationCeiling logs each row's name=count for make allocs.
func TestMessageAllocationCeiling(t *testing.T) {
	for _, row := range allocTable {
		t.Run(row.name, func(t *testing.T) {
			step := row.model()
			step() // warm: pools, rings and maps at size
			got := testing.AllocsPerRun(200, step)
			if t.Logf("%s=%v", row.name, got); got > row.ceiling {
				t.Errorf("%s=%v, ceiling %v", row.name, got, row.ceiling)
			}
		})
	}
}

// BenchmarkAllocs runs allocTable's rows as sub-benchmarks.
func BenchmarkAllocs(b *testing.B) {
	for _, row := range allocTable {
		b.Run(row.name, func(b *testing.B) {
			step := row.model()
			step()
			b.ReportAllocs()
			for b.Loop() {
				step()
			}
		})
	}
}

// Every message is one Flight: allocated by a poster that has no record of
// its own, embedded in the verbs transfer and the IPoIB send, which are
// pooled. Its two
// events are 16 bytes each (a waiter ring kept by its tail), which puts it in
// the 160-byte size class; it was 168, the 176-byte class, with 24-byte
// events.
func TestFlightSize(t *testing.T) {
	if got := unsafe.Sizeof(Flight{}); got != 152 {
		t.Errorf("Flight is %d bytes, want 152 (168 at f0af065)", got)
	}
}
