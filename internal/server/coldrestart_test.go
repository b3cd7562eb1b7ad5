package server

import (
	"fmt"
	"testing"

	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
)

// TestColdRestartRecoversCommittedState power-cycles a hybrid server and
// verifies the full recovery pipeline: requests racing the recovery scan are
// answered with StatusRecovering (not dropped, not wedged), and once the
// scan finishes the server serves exactly the committed SSD state — every
// hit byte-correct, RAM-resident items lost to the power cut.
func TestColdRestartRecoversCommittedState(t *testing.T) {
	r := newDirectRig(t, 1<<20) // 1 MB of slab: 32 KB sets evict almost at once
	const fill = 40
	var during *protocol.Response
	hits := 0
	sim.Drive(t, r.env, "client", func(p *sim.Proc) {
		for i := 0; i < fill; i++ {
			r.sendReq(p, &protocol.Request{
				Op: protocol.OpSet, ReqID: uint64(i + 1),
				Key: fmt.Sprintf("k%02d", i), ValueSize: 32 << 10, Value: i,
			})
			if got := r.awaitResp(p); got.Status != protocol.StatusStored {
				t.Errorf("fill set %d status %v", i, got.Status)
			}
		}
		r.srv.Crash()
		p.Sleep(500 * sim.Microsecond)
		r.srv.RestartCold()
		if !r.srv.Recovering() {
			t.Error("Recovering() = false right after RestartCold")
		}
		// A request racing the scan gets an immediate recovering answer.
		r.sendReq(p, &protocol.Request{Op: protocol.OpGet, ReqID: 100, Key: "k00"})
		during = r.awaitResp(p)
		for r.srv.Recovering() {
			p.Sleep(sim.Millisecond)
		}
		for i := 0; i < fill; i++ {
			r.sendReq(p, &protocol.Request{
				Op: protocol.OpGet, ReqID: uint64(200 + i), Key: fmt.Sprintf("k%02d", i),
			})
			resp := r.awaitResp(p)
			switch resp.Status {
			case protocol.StatusOK:
				hits++
				if resp.Value != i {
					t.Errorf("post-recovery get k%02d = %v, want %d", i, resp.Value, i)
				}
			case protocol.StatusNotFound:
				// RAM-resident at the power cut, or on a discarded page.
			default:
				t.Errorf("post-recovery get k%02d status %v", i, resp.Status)
			}
		}
	})

	if during == nil {
		t.Fatal("no answer to the request sent during recovery")
	}
	if during.Status != protocol.StatusRecovering || during.ReqID != 100 {
		t.Fatalf("during-recovery response %+v, want ReqID 100 StatusRecovering", during)
	}
	if r.srv.Rejected < 1 {
		t.Errorf("Rejected = %d, want >= 1", r.srv.Rejected)
	}
	rep := r.srv.LastRecovery
	if rep.PagesScanned == 0 || rep.PagesScanned != rep.PagesRecovered+rep.PagesDiscarded {
		t.Errorf("inconsistent recovery report: %+v", rep)
	}
	if hits == 0 {
		t.Fatal("nothing survived the cold restart despite committed flushes")
	}
	if int64(hits) != rep.ItemsRecovered {
		t.Errorf("served %d recovered keys, report says %d", hits, rep.ItemsRecovered)
	}
	if r.srv.RecoveryTime <= 0 {
		t.Errorf("RecoveryTime = %v, want > 0", r.srv.RecoveryTime)
	}
	if got := r.srv.Recoveries; got != 1 {
		t.Errorf("recovery counter = %d, want 1", got)
	}
}
