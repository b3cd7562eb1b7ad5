package replication_test

import (
	"testing"

	"hybridkv/internal/cluster"
	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
)

// replicatedSetModel returns a step that runs one SET end to end on a
// three-server R=3 cluster: the client's request, the coordinator's forward
// to both backups, their applies and acks, the coordinator's apply, the
// response. The scrubber is off, so the step is the write and nothing else.
func replicatedSetModel() (step func()) {
	cl := cluster.New(cluster.Config{
		Design:            cluster.HRDMAOptNonBI,
		Profile:           cluster.ClusterA(),
		Servers:           3,
		Clients:           1,
		ServerMem:         8 << 20,
		ReplicationFactor: 3,
		ScrubInterval:     -1,
	})
	c := cl.Clients[0]
	kick := sim.NewQueue[struct{}](cl.Env, 0)
	cl.Env.Spawn("driver", func(p *sim.Proc) {
		for {
			if _, ok := kick.Get(p); !ok {
				return
			}
			if st := c.Set(p, "k", itValue, "v", 0, 0); st != protocol.StatusStored {
				panic("replicated SET answered " + st.String())
			}
		}
	})
	return func() {
		kick.TryPut(struct{}{})
		cl.Env.Run()
	}
}

// BenchmarkReplicatedSet is the replication layer's host-cost line.
func BenchmarkReplicatedSet(b *testing.B) {
	step := replicatedSetModel()
	step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// One SET at R=3 is 14 allocations: the request handle (1); six fabric
// messages, one transfer each (6: request, two forwards, two acks,
// response); the round (1: the Forward carries its peers, its event and the
// write frame both forwards share); an ack frame per backup (2); the stored
// item on each of the three servers (3); the response record (1). It was 38
// before the round, the messages and the request were each made one object.
func TestReplicatedSetAllocationCeiling(t *testing.T) {
	step := replicatedSetModel()
	step()
	if got := testing.AllocsPerRun(300, step); got > 14 {
		t.Errorf("one replicated SET at R=3: %v allocations, ceiling 14", got)
	}
}
