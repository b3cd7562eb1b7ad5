package cluster

import (
	"fmt"
	"strings"
	"testing"

	"hybridkv/internal/hybridslab"
	"hybridkv/internal/sim"
)

// TestCensusNamesWhatLeaks runs a small replicated cluster with a published
// directory to a quiesce, where the census must find every pooled record
// accounted for. Then it plants the two faults the census exists to catch: a
// stray hold on a published item, and a server reply taken off the store's
// list that its taker lets go of without giving back. The census must name
// both: the replies list with its one record unaccounted for, and the item,
// whose holds exceed the holders the walk found by one.
func TestCensusNamesWhatLeaks(t *testing.T) {
	cl := New(Config{Design: HRDMAOptNonBI, Profile: ClusterA(), Servers: 2, ServerMem: 16 << 20,
		ReplicationFactor: 2, Bypass: true})
	defer cl.Env.Close()
	key := func(i int) string { return fmt.Sprintf("k%02d", i) }
	cl.Preload(64, 256, key)
	cl.Env.Spawn("reads", func(p *sim.Proc) {
		for i := range 64 {
			cl.Clients[0].Get(p, key(i))
		}
	})
	cl.Env.Run()
	if err := cl.Census().Err(); err != nil {
		t.Fatalf("a clean run: %v", err)
	}

	st := cl.Servers[0].Store()
	var planted *hybridslab.Item
	st.Manager().VisitLRU(1, func(it *hybridslab.Item) bool {
		planted = it
		return false
	})
	if planted == nil {
		t.Fatal("server0 has no resident item")
	}
	planted.Hold()
	st.Reply(1) // taken off the list and never released

	err := cl.Census().Err()
	if err == nil {
		t.Fatal("the census found nothing wrong with a stray hold and a lost reply")
	}
	for _, want := range []string{
		"server0 replies: 1 unaccounted",
		`server0 items: item "` + planted.Key + `": 4 holds, 3 holders walked`,
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("census: %v\nnames nothing like %q", err, want)
		}
	}
	if strings.Contains(err.Error(), "server1") || strings.Contains(err.Error(), "client0") {
		t.Errorf("census: %v\nblames a list nothing was planted in", err)
	}
}
