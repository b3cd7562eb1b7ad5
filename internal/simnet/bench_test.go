package simnet

import (
	"testing"

	"hybridkv/internal/sim"
)

// messageModel returns a step that posts one 64-byte message and runs the
// fabric until it has been delivered: tx-queue handoff, serialization
// sleep, Sent, the delivery callback event, Delivered, the receiver.
func messageModel() (step func(), delivered *int) {
	env := sim.NewEnv()
	f := New(env, FDRInfiniBand())
	a, b := f.AddNode("a"), f.AddNode("b")
	n := 0
	b.SetReceiver(func(*Message) { n++ })
	env.Run()                                             // no driver: the fabric's start-up is all that runs
	return func() { a.Post("b", 64, nil); env.Run() }, &n // no driver: the post is a callback chain, and its allocations are what is counted
}

// BenchmarkMessage is the host cost of one fabric message, post to delivery.
func BenchmarkMessage(b *testing.B) {
	step, _ := messageModel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// One message is one allocation: the Flight is everything it carries
// (Message, Outgoing, both events, delivery state) and the delivery callback
// event too.
func TestMessageAllocationCeiling(t *testing.T) {
	step, delivered := messageModel()
	step()
	if got := testing.AllocsPerRun(200, step); got > 1 {
		t.Errorf("one message post to deliver: %v allocations, ceiling 1", got)
	}
	if *delivered != 202 {
		t.Errorf("delivered %d messages, want 202", *delivered)
	}
}
