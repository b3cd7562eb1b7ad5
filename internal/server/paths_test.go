package server

import (
	"fmt"
	"testing"

	"hybridkv/internal/fault"
	"hybridkv/internal/hybridslab"
	"hybridkv/internal/protocol"
	"hybridkv/internal/replication"
	"hybridkv/internal/sim"
	"hybridkv/internal/simnet"
	"hybridkv/internal/slab"
	"hybridkv/internal/store"
	"hybridkv/internal/verbs"
)

// The path matrix: every way an arrival reaches the storage phase — bare
// request or frame, sync or async pipeline, plain or replicated storage
// phase, QP or socket — must obey the same rules, so one assertion list runs
// over all of them. The rows share one receive and one finish; this test is
// what keeps a rule from being true on some rows only.

// pathRow is one cell of the matrix.
type pathRow struct {
	name     string
	frame    bool // one BatchFrame of pathMembers SETs; else one bare SET
	pipeline Pipeline
	replicas int  // 1: plain; 3: a replicator attached and two live backups
	socket   bool // IPoIB stream instead of a QP (plain sync only)
}

const (
	pathMembers   = 4
	pathValueSize = 4 << 10
)

func pathRows() []pathRow {
	var rows []pathRow
	for _, frame := range []bool{false, true} {
		shape := "bare"
		if frame {
			shape = "frame"
		}
		for _, pl := range []Pipeline{Sync, Async} {
			for _, replicas := range []int{1, 3} {
				rows = append(rows, pathRow{
					name:  fmt.Sprintf("%s/%v/R%d/qp", shape, pl, replicas),
					frame: frame, pipeline: pl, replicas: replicas,
				})
			}
		}
		rows = append(rows, pathRow{name: shape + "/sync/R1/socket", frame: frame, pipeline: Sync, replicas: 1, socket: true})
	}
	return rows
}

// members is how many requests the row's arrival carries.
func (row pathRow) members() int {
	if row.frame {
		return pathMembers
	}
	return 1
}

// pathMsg is one message the server sent, with what was true when it landed.
type pathMsg struct {
	resp *protocol.Response
	// backupSets is how many SETs the backups had applied by then.
	backupSets int64
}

// pathRig is the server under test (plus its backups on a replicated row)
// and a raw client — no client runtime — that records every message the
// server sends, in arrival order.
type pathRig struct {
	env     *sim.Env
	row     pathRow
	srv     *Server
	backups []*Server
	sqp     *verbs.QP // the server's end of the client QP; nil on a socket
	respMR  int
	post    func(p *sim.Proc, size int, payload any)
	msgs    []pathMsg
}

func newPathRig(row pathRow, cfg Config) *pathRig {
	env := sim.NewEnv()
	spec := simnet.FDRInfiniBand()
	if row.socket {
		spec = simnet.IPoIB()
	}
	fab := simnet.New(env, spec)
	cnode := fab.AddNode("client")
	r := &pathRig{env: env, row: row}
	cfg.Pipeline = row.pipeline
	newStore := func() *store.Store {
		return store.New(env, hybridslab.New(env, hybridslab.Config{Slab: slab.Config{MemLimit: 64 << 20}}, nil))
	}
	if row.socket {
		r.srv = NewIPoIB(env, fab.AddNode("server0"), newStore(), cfg)
		r.srv.Start()
		stream := verbs.NewHost(cnode).Dial(r.srv.Host())
		r.post = func(p *sim.Proc, size int, payload any) { stream.Send(p, size, payload) }
		env.Spawn("collector", func(p *sim.Proc) {
			for {
				r.note(stream.Recv(p).Payload)
			}
		})
		return r
	}
	ids := make([]int, row.replicas)
	for i := range ids {
		ids[i] = i
	}
	mem := replication.NewMembership(env, row.replicas, ids)
	var repls []*replication.Replicator
	for i := 0; i < row.replicas; i++ {
		srv := NewRDMA(env, fab.AddNode(fmt.Sprintf("server%d", i)), newStore(), cfg)
		if row.replicas > 1 {
			// Every server replicates every key, so server 0 coordinates as a
			// member and both others are its backups.
			repl := replication.New(env, replication.Config{ID: i}, mem, srv.Store(), srv.Device())
			srv.AttachReplicator(repl)
			repls = append(repls, repl)
		}
		srv.Start()
		if i == 0 {
			r.srv = srv
		} else {
			r.backups = append(r.backups, srv)
		}
	}
	if repls != nil {
		replication.Interconnect(repls)
		// Every message to or from a backup takes 50 µs longer (well inside
		// the replicator's ack timeout): a write's chain then completes long
		// after an ack sent at admission would have landed, so the order of
		// the two is unmistakable at the client.
		slow := fault.New(fault.Config{})
		for i := 1; i < row.replicas; i++ {
			slow.AddSlow(fmt.Sprintf("server%d", i), 0, sim.Second, 50*sim.Microsecond, 0)
		}
		fab.SetFaults(slow)
	}
	cdev := verbs.OpenDevice(cnode)
	recvCQ := cdev.CreateCQ(0)
	qp := cdev.CreateQP(cdev.CreateCQ(0), recvCQ)
	r.sqp = r.srv.AcceptQP(qp)
	for i := 0; i < 64; i++ {
		qp.PostRecv(verbs.RecvWR{})
	}
	r.respMR = cdev.AllocPD().RegisterMRSetup(2 << 20).LKey()
	r.post = func(p *sim.Proc, size int, payload any) {
		qp.PostSend(p, verbs.SendWR{Op: verbs.OpSend, Size: size, Payload: payload})
	}
	env.Spawn("collector", func(p *sim.Proc) {
		for {
			c := recvCQ.WaitPoll(p)
			qp.PostRecv(verbs.RecvWR{})
			r.note(c.Payload)
		}
	})
	return r
}

func (r *pathRig) note(payload any) {
	m := pathMsg{resp: payload.(*protocol.Response)}
	for _, b := range r.backups {
		m.backupSets += b.Store().SetOps
	}
	r.msgs = append(r.msgs, m)
}

// sendArrival posts the row's arrival: pathMembers SETs (request ids 1..n) in
// one frame with batch id 100, or one bare SET with request id 1.
func (r *pathRig) sendArrival(p *sim.Proc, ackWanted bool) {
	var reqs []*protocol.Request
	for i := 0; i < r.row.members(); i++ {
		reqs = append(reqs, &protocol.Request{
			Op: protocol.OpSet, ReqID: uint64(i + 1), Key: fmt.Sprintf("k%d", i),
			ValueSize: pathValueSize, Value: i, RespMR: r.respMR, AckWanted: ackWanted,
		})
	}
	if !r.row.frame {
		r.post(p, reqs[0].WireSize(), reqs[0])
		return
	}
	frame := &protocol.BatchFrame{BatchID: 100, AckWanted: ackWanted, Reqs: reqs}
	r.post(p, frame.WireSize(), frame)
}

// sendProbe posts a bare GET with request id 200: the liveness probe after a
// crash scenario.
func (r *pathRig) sendProbe(p *sim.Proc) {
	req := &protocol.Request{Op: protocol.OpGet, ReqID: 200, Key: "k0", RespMR: r.respMR}
	r.post(p, req.WireSize(), req)
}

// wantReposted checks the arrival's receive slot went back to the QP exactly
// once (a socket has none).
func (r *pathRig) wantReposted(t *testing.T) {
	t.Helper()
	if r.sqp != nil && r.sqp.RecvDepth() != recvDepth {
		t.Errorf("server QP holds %d receives, want %d: the arrival's slot was not re-posted exactly once",
			r.sqp.RecvDepth(), recvDepth)
	}
}

// wantReleased checks nothing is left reserved in the async buffer.
func (r *pathRig) wantReleased(t *testing.T) {
	t.Helper()
	if r.srv.slots != nil && r.srv.slots.InUse() != 0 {
		t.Errorf("%d buffer bytes still reserved", r.srv.slots.InUse())
	}
}

// split separates the recorded messages into BufferAcks and responses.
func (r *pathRig) split() (acks, resps []pathMsg) {
	for _, m := range r.msgs {
		if m.resp.Op == protocol.OpBufferAck {
			acks = append(acks, m)
		} else {
			resps = append(resps, m)
		}
	}
	return acks, resps
}

func TestPathMatrix(t *testing.T) {
	scenarios := []struct {
		name string
		run  func(t *testing.T, row pathRow)
	}{
		{"crashed-before-receive", pathCrashedBeforeReceive},
		{"recovering", pathRecovering},
		{"crash-mid-storage-phase", pathCrashMidStoragePhase},
		{"ack-wanted", pathAckWanted},
		{"overload-shed", pathOverloadShed},
	}
	for _, row := range pathRows() {
		for _, sc := range scenarios {
			t.Run(row.name+"/"+sc.name, func(t *testing.T) { sc.run(t, row) })
		}
	}
}

// A crashed server swallows the arrival: every member discarded, the receive
// re-posted so a retry does not hit receiver-not-ready, nothing sent.
func pathCrashedBeforeReceive(t *testing.T, row pathRow) {
	r := newPathRig(row, Config{})
	r.srv.Crash()
	sim.Drive(t, r.env, "client", func(p *sim.Proc) { r.sendArrival(p, true) })
	n := int64(row.members())
	if len(r.msgs) != 0 {
		t.Errorf("a crashed server sent %d messages", len(r.msgs))
	}
	if r.srv.Discarded != n || r.srv.Requests != 0 {
		t.Errorf("Discarded=%d Requests=%d, want %d and 0", r.srv.Discarded, r.srv.Requests, n)
	}
	r.wantReposted(t)
}

// Inside a cold restart's recovery window every member is rejected fast with
// StatusRecovering, under one receive-repost, and nothing reaches storage.
func pathRecovering(t *testing.T, row pathRow) {
	r := newPathRig(row, Config{})
	r.srv.recovering = true // hold the window open: no scan is running to close it
	sim.Drive(t, r.env, "client", func(p *sim.Proc) { r.sendArrival(p, true) })
	n := row.members()
	acks, resps := r.split()
	if len(acks) != 0 || len(resps) != n {
		t.Fatalf("%d acks and %d responses, want 0 and %d", len(acks), len(resps), n)
	}
	for i, m := range resps {
		if m.resp.Status != protocol.StatusRecovering || m.resp.ReqID != uint64(i+1) {
			t.Errorf("member %d answered %v for request %d, want StatusRecovering in member order", i, m.resp.Status, m.resp.ReqID)
		}
	}
	if r.srv.Rejected != int64(n) || r.srv.Store().SetOps != 0 {
		t.Errorf("Rejected=%d SetOps=%d, want %d and 0", r.srv.Rejected, r.srv.Store().SetOps, n)
	}
	r.wantReposted(t)
	r.wantReleased(t)
}

// A crash while the storage phase runs loses the whole arrival's answers with
// the process — even though the server has restarted by the time the storage
// phase unwinds — and gives back whatever the task held.
func pathCrashMidStoragePhase(t *testing.T, row pathRow) {
	r := newPathRig(row, Config{})
	sim.DriveUntil(t, r.env, -1,
		sim.Driver{Name: "client", Fn: func(p *sim.Proc) {
			r.sendArrival(p, true)
			p.Sleep(5 * sim.Millisecond) // outlives the storage phase and any forward-resend rounds
			if r.srv.Down() {
				t.Error("saboteur never restarted the server")
			}
			r.sendProbe(p)
		}},
		sim.Driver{Name: "saboteur", Fn: func(p *sim.Proc) {
			// The first member's Set has begun and is sleeping in its slab phase.
			for r.srv.Store().SetOps == 0 {
				p.Sleep(10 * sim.Nanosecond)
			}
			r.srv.Crash()
			r.srv.Restart()
		}})
	_, resps := r.split()
	if len(resps) != 1 || resps[0].resp.ReqID != 200 {
		t.Fatalf("%d responses, want only the post-restart probe's (a wedged or leaky server?)", len(resps))
	}
	if n := int64(row.members()); r.srv.Discarded != n {
		t.Errorf("Discarded=%d, want %d", r.srv.Discarded, n)
	}
	r.wantReposted(t)
	r.wantReleased(t)
}

// AckWanted is honoured on the async pipeline only, with exactly one
// BufferAck per arrival: at admission — before any response — when plain;
// once every member is applied on every replica when replicated. Either way
// each member then gets exactly one response.
func pathAckWanted(t *testing.T, row pathRow) {
	r := newPathRig(row, Config{})
	sim.Drive(t, r.env, "client", func(p *sim.Proc) { r.sendArrival(p, true) })
	n := row.members()
	acks, resps := r.split()
	if len(resps) != n {
		t.Fatalf("%d responses, want %d", len(resps), n)
	}
	for i, m := range resps {
		if m.resp.Status != protocol.StatusStored || m.resp.ReqID != uint64(i+1) {
			t.Errorf("member %d answered %v for request %d, want StatusStored in member order", i, m.resp.Status, m.resp.ReqID)
		}
	}
	if row.pipeline == Sync {
		if len(acks) != 0 || r.srv.Acks != 0 {
			t.Errorf("the inline pipeline sent %d BufferAcks", len(acks))
		}
		r.wantReposted(t)
		return
	}
	if len(acks) != 1 || r.srv.Acks != 1 {
		t.Fatalf("%d BufferAcks (Acks=%d), want exactly one per arrival", len(acks), r.srv.Acks)
	}
	wantID := uint64(1)
	if row.frame {
		wantID = 100 // the batch id: one ack covers every member
	}
	if r.msgs[0].resp.Op != protocol.OpBufferAck || acks[0].resp.ReqID != wantID {
		t.Errorf("first message is %v for id %d, want the BufferAck for id %d", r.msgs[0].resp.Op, r.msgs[0].resp.ReqID, wantID)
	}
	if want := int64(len(r.backups) * n); acks[0].backupSets != want {
		t.Errorf("the BufferAck landed with %d backup applies done, want %d: acked must mean on every replica",
			acks[0].backupSets, want)
	}
	r.wantReposted(t)
	r.wantReleased(t)
}

// Bounded admission sheds an over-watermark arrival whole: StatusBusy per
// member, strictly before any ack (so none is ever sent), nothing buffered.
// The inline pipeline has no admission stage and serves the arrival.
func pathOverloadShed(t *testing.T, row pathRow) {
	// One member alone overshoots the write watermark of a 4 KB buffer.
	r := newPathRig(row, Config{BufferBytes: pathValueSize, Overload: true})
	sim.Drive(t, r.env, "client", func(p *sim.Proc) { r.sendArrival(p, true) })
	n := row.members()
	acks, resps := r.split()
	if len(resps) != n {
		t.Fatalf("%d responses, want %d", len(resps), n)
	}
	want := protocol.StatusBusy
	if row.pipeline == Sync {
		want = protocol.StatusStored
	}
	for i, m := range resps {
		if m.resp.Status != want || m.resp.ReqID != uint64(i+1) {
			t.Errorf("member %d answered %v for request %d, want %v in member order", i, m.resp.Status, m.resp.ReqID, want)
		}
	}
	if len(acks) != 0 || r.srv.Acks != 0 {
		t.Errorf("%d BufferAcks around a shed arrival", len(acks))
	}
	if row.pipeline == Async && (r.srv.ShedSets != int64(n) || r.srv.Store().SetOps != 0) {
		t.Errorf("ShedSets=%d SetOps=%d, want %d and 0", r.srv.ShedSets, r.srv.Store().SetOps, n)
	}
	r.wantReposted(t)
	r.wantReleased(t)
}
