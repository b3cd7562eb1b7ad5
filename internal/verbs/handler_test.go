package verbs

import (
	"fmt"
	"testing"

	"hybridkv/internal/sim"
	"hybridkv/internal/simnet"
)

// TestCompletionHandlerTakesThePollersSlots runs the same traffic twice into
// one receive CQ: two peers SEND three messages each, the two first ones
// landing at the same instant, and each sender logs when its posts return.
// Once a process consumes the CQ with WaitPoll, once a completion handler
// does. The two logs — every completion and every sender step, in the order
// the kernel ran them — must agree entry for entry: the drain takes the slot
// the poller's wakeup took. The handler run must trade the poller's resumes
// for callbacks one for one, the poller's start slot aside, and the two
// completions that land together take one drain as they took one resume.
func TestCompletionHandlerTakesThePollersSlots(t *testing.T) {
	type entry struct {
		at   sim.Time
		what string
	}
	run := func(handler bool) ([]entry, sim.Counts) {
		env := sim.NewEnv()
		t.Cleanup(env.Close)
		fab := simnet.New(env, simnet.FDRInfiniBand())
		dev := OpenDevice(fab.AddNode("b"))
		recv := dev.CreateCQ(0)
		var log []entry
		consume := func(c Completion) {
			log = append(log, entry{env.Now(), c.Payload.(string)})
			c.QP.PostRecv(RecvWR{})
		}
		var senders []sim.Driver
		for _, name := range []string{"a0", "a1"} {
			src := OpenDevice(fab.AddNode(name))
			qa := src.CreateQP(src.CreateCQ(0), src.CreateCQ(0))
			qb := dev.CreateQP(dev.CreateCQ(0), recv)
			Connect(qa, qb)
			qb.PostRecv(RecvWR{})
			senders = append(senders, sim.Driver{Name: name, Fn: func(p *sim.Proc) {
				for k := range 3 {
					sent := qa.PostSend(p, SendWR{Op: OpSend, Size: 128 << k, Payload: fmt.Sprintf("%s/%d", name, k)})
					log = append(log, entry{p.Now(), name + " posted"})
					p.Wait(sent)
					log = append(log, entry{p.Now(), name + " sent"})
				}
			}})
		}
		if handler {
			recv.OnCompletion(consume)
		} else {
			env.Spawn("poller", func(p *sim.Proc) {
				for {
					consume(recv.WaitPoll(p))
				}
			})
		}
		sim.DriveUntil(t, env, -1, senders...)
		return log, env.Counts()
	}
	polled, pc := run(false)
	handled, hc := run(true)
	if fmt.Sprint(polled) != fmt.Sprint(handled) {
		t.Errorf("the logs differ:\npoller  %v\nhandler %v", polled, handled)
	}
	together := 0
	var last sim.Time = -1
	for _, e := range polled {
		if e.what[0] == 'a' && e.what[2] == '/' {
			if e.at == last {
				together++
			}
			last = e.at
		}
	}
	if together == 0 {
		t.Errorf("no two completions landed at one instant: the test proves nothing\n%v", polled)
	}
	if trade := pc.Resumes - hc.Resumes; trade != hc.Callbacks-pc.Callbacks+1 || hc.InPlace != pc.InPlace {
		t.Errorf("poller %+v, handler %+v: want the poller's resumes but its start traded one for one for callbacks, and sleeps in place unchanged", pc, hc)
	}
	t.Logf("poller %+v, handler %+v", pc, hc)
}
