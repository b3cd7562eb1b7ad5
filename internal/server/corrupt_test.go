package server

import (
	"fmt"
	"testing"

	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
)

// An unreplicated server has nowhere to repair a rotted copy from: a
// read-modify-write of one answers the command's missing-key status, as a
// rotted GET answers a miss — never StatusCorrupt on the wire — and the store
// counts the corrupt read either way.
func TestUnreplicatedRottenReadModifyWriteAnswersItsMiss(t *testing.T) {
	for _, tc := range []struct {
		op    protocol.Opcode
		value any
		want  protocol.Status
	}{
		{protocol.OpIncr, uint64(41), protocol.StatusNotFound},
	} {
		t.Run(tc.op.String(), func(t *testing.T) {
			r := newDirectRig(t, 1<<20) // 1 MB of slab: 32 KB sets evict almost at once
			var got *protocol.Response
			r.env.Spawn("client", func(p *sim.Proc) {
				id := uint64(0)
				do := func(req *protocol.Request) *protocol.Response {
					id++
					req.ReqID = id
					r.sendReq(p, req)
					return r.awaitResp(p)
				}
				do(&protocol.Request{Op: protocol.OpSet, Key: "k", ValueSize: 32 << 10, Value: tc.value})
				for i := 0; i < 40; i++ {
					do(&protocol.Request{Op: protocol.OpSet, Key: fmt.Sprintf("fill%02d", i), ValueSize: 32 << 10, Value: i})
				}
				r.dev.AddBitRot(17, p.Now(), p.Now()+sim.Millisecond, 1.0)
				p.Sleep(2 * sim.Millisecond) // past every extent's rot instant
				got = do(&protocol.Request{Op: tc.op, Key: "k", Delta: 1})
			})
			r.env.Run()
			if got == nil || got.Status != tc.want {
				t.Fatalf("rotten %v answered %+v, want %v", tc.op, got, tc.want)
			}
			if n := r.srv.Store().CorruptReads; n != 1 {
				t.Errorf("CorruptReads = %d, want 1: the read that failed verification is not counted", n)
			}
		})
	}
}
