package cluster

import (
	"fmt"
	"hybridkv/internal/metrics"
	"testing"

	"hybridkv/internal/protocol"
	"hybridkv/internal/server"
	"hybridkv/internal/sim"
)

// TestKillDuringJoinConvergesWithPacing re-runs the nastiest membership
// lifecycle — a migration source killed and cold-restarted mid-join — with
// the background-traffic pacer throttling the anti-entropy and migration
// pulls, while a foreground writer keeps publishing. The pacer must only
// ever defer background work, never wedge it: the rebalance still
// finalizes, every acked write (preloaded and foreground) stays readable,
// and the foreground writer keeps its goodput floor.
func TestKillDuringJoinConvergesWithPacing(t *testing.T) {
	cl := New(Config{
		Design:            HRDMAOptNonBB,
		Profile:           ClusterA(),
		Servers:           3,
		Clients:           1,
		ServerMem:         8 << 20,
		ReplicationFactor: 2,
		Pacer:             true,
	})
	c := cl.Clients[0]
	victim := 1
	const fgWrites = 64

	fgAcked := 0
	sim.Drive(t, cl.Env, "mem-kill-paced", func(p *sim.Proc) {
		if !memPreload(t, c, p) {
			return
		}
		_, done := cl.Join()

		// Foreground load concurrent with the paced migration: this is the
		// traffic the pacer exists to protect.
		writer := cl.Env.NewEvent()
		cl.Env.Spawn("fg-writer", func(wp *sim.Proc) {
			defer writer.Fire()
			for i := 0; i < fgWrites; i++ {
				if st := c.Set(wp, fmt.Sprintf("fg:%03d", i), memValue, uint64(i), 0, 0); st == protocol.StatusStored {
					fgAcked++
				}
				wp.Sleep(50 * sim.Microsecond)
			}
		})

		cl.Servers[victim].Outage(p, server.KillRAM, 500*sim.Microsecond)
		cl.AwaitRebalance(p)
		if !done.Fired() {
			t.Error("paced join finalize event never fired despite the restart")
		}
		p.Wait(writer)
		p.Sleep(5 * sim.Millisecond)
		memVerify(t, c, p, "after paced kill-during-join")
		for i := 0; i < fgWrites; i++ {
			key := fmt.Sprintf("fg:%03d", i)
			if _, _, st := c.Get(p, key); st != protocol.StatusOK {
				t.Errorf("foreground key %q unreadable after rebalance: %v", key, st)
			}
		}
	})

	// Goodput floor: pacing slows the background, not the foreground.
	if fgAcked != fgWrites {
		t.Errorf("foreground writer acked %d/%d writes under paced migration", fgAcked, fgWrites)
	}
	total := cl.ReplicationCounters()
	if total.Val(metrics.CMigrateSeals) == 0 {
		t.Error("no segment was ever sealed with the pacer enabled")
	}
	if total.Val(metrics.CMigrateKeysMoved) == 0 {
		t.Error("paced join migrated zero keys")
	}
}
