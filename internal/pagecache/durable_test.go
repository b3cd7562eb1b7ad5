package pagecache

import (
	"testing"

	"hybridkv/internal/blockdev"
	"hybridkv/internal/sim"
)

// TestWriteExtentsDurableAndRecover: an untorn extent write is fully durable
// and survives RecoverExtents (the cold-restart logical rebuild); Discard
// removes an extent from both views so recovery cannot resurrect it.
func TestWriteExtentsDurableAndRecover(t *testing.T) {
	env := sim.NewEnv()
	dev := blockdev.New(env, blockdev.SATA(), 1<<30)
	f := New(env, dev, DefaultParams()).OpenFile(0, 16<<20)
	exts := []Extent{
		{Off: 0, Size: 512, Payload: "hdr"},
		{Off: 512, Size: 4096, Payload: "slot0"},
		{Off: 4608, Size: 4096, Payload: "slot1"},
	}
	var ok bool
	env.Spawn("w", func(p *sim.Proc) { ok = f.WriteExtents(p, 0, 8704, exts, Direct) })
	env.Run()
	if !ok {
		t.Fatal("WriteExtents failed with no faults armed")
	}
	for _, e := range exts {
		d, found := f.PeekDurable(e.Off)
		if !found || d.Torn() || d.Payload != e.Payload {
			t.Errorf("extent at %d not fully durable: %+v found=%v", e.Off, d, found)
		}
	}
	if end := f.DurableEnd(); end != 8704 {
		t.Errorf("DurableEnd = %d, want 8704", end)
	}

	f.Discard(512)
	f.RecoverExtents()
	if _, found := f.extents[512]; found {
		t.Error("discarded extent resurrected by RecoverExtents")
	}
	for _, off := range []int64{0, 4608} {
		if e, found := f.extents[off]; !found || e.payload == nil {
			t.Errorf("durable extent at %d missing from recovered logical view", off)
		}
	}
}

// TestTornWriteExtentsPersistPrefixOnly: with every command tearing, only
// sub-extents wholly inside the persisted sector prefix survive intact; the
// straddler is recorded torn, later ones stay absent — and the running
// logical view still holds everything (tearing is invisible until a crash).
// RecoverExtents must then drop every non-intact extent.
func TestTornWriteExtentsPersistPrefixOnly(t *testing.T) {
	env := sim.NewEnv()
	dev := blockdev.New(env, blockdev.SATA(), 1<<30)
	dev.SetTornWrites(3, 1.0)
	f := New(env, dev, DefaultParams()).OpenFile(0, 16<<20)
	const n, sz = 16, 4096
	var exts []Extent
	for i := 0; i < n; i++ {
		exts = append(exts, Extent{Off: int64(i * sz), Size: sz, Payload: i})
	}
	env.Spawn("w", func(p *sim.Proc) { f.WriteExtents(p, 0, n*sz, exts, Direct) })
	env.Run()
	if dev.TornWrites != 1 {
		t.Fatalf("TornWrites = %d, want 1", dev.TornWrites)
	}
	intact, torn, absent := 0, 0, 0
	for _, e := range exts {
		d, found := f.PeekDurable(e.Off)
		switch {
		case !found:
			absent++
		case d.Torn():
			torn++
		default:
			intact++
		}
		if le, ok := f.extents[e.Off]; !ok || le.payload != e.Payload {
			t.Errorf("logical view lost extent %d despite the write completing", e.Off)
		}
	}
	if intact == n || absent+torn == 0 {
		t.Fatalf("prob-1 tear persisted everything (intact=%d torn=%d absent=%d)",
			intact, torn, absent)
	}
	if torn > 1 {
		t.Errorf("%d torn extents; at most the straddler may be partial", torn)
	}
	f.RecoverExtents()
	if got := len(f.extents); got != intact {
		t.Errorf("recovered logical view has %d extents, want the %d intact ones", got, intact)
	}
}

// TestTornMergedCommitDropsSuffix: a merged commit write (several records in
// one command) that tears persists only a prefix of the records in slice
// order — the suffix regions stay uncommitted. Single-record commits are
// sector-sized and can never tear.
func TestTornMergedCommitDropsSuffix(t *testing.T) {
	env := sim.NewEnv()
	dev := blockdev.New(env, blockdev.SATA(), 1<<30)
	f := New(env, dev, DefaultParams()).OpenFile(0, 16<<20)
	recs := []Extent{
		{Off: 4096, Size: 512, Payload: "commitA"},
		{Off: 8192, Size: 512, Payload: "commitB"},
	}
	dev.SetTornWrites(3, 1.0)
	var ok bool
	env.Spawn("w", func(p *sim.Proc) { ok = f.WriteCommit(p, recs) })
	env.Run()
	if !ok {
		t.Fatal("WriteCommit failed with no write errors armed")
	}
	if dev.TornWrites != 1 {
		t.Fatalf("TornWrites = %d, want 1", dev.TornWrites)
	}
	if d, found := f.PeekDurable(8192); found && !d.Torn() {
		t.Errorf("suffix record durable despite the torn merged commit: %+v", d)
	}
	if a, af := f.PeekDurable(4096); af && a.Torn() {
		t.Errorf("prefix record torn: %+v", a)
	}

	// A single sector-sized record is atomic even at tear probability 1.
	var ok2 bool
	env.Spawn("w2", func(p *sim.Proc) {
		ok2 = f.WriteCommit(p, []Extent{{Off: 12288, Size: 512, Payload: "commitC"}})
	})
	env.Run()
	if !ok2 {
		t.Fatal("single-record WriteCommit failed")
	}
	if d, found := f.PeekDurable(12288); !found || d.Torn() {
		t.Errorf("single-record commit not atomic: %+v found=%v", d, found)
	}
}

// TestWriteInFlightAcrossColdRestartPlacesNothing: a durable write whose
// process is still suspended in the device when the host loses power never
// reached the media. The process may resume in the next incarnation — the
// simulation has no way to kill it — but the command reports failure and
// places nothing, logical or durable: a recovery scan (or a later one) must
// not meet a page that was "written" after the power cut.
func TestWriteInFlightAcrossColdRestartPlacesNothing(t *testing.T) {
	env := sim.NewEnv()
	dev := blockdev.New(env, blockdev.SATA(), 1<<30)
	f := New(env, dev, DefaultParams()).OpenFile(0, 16<<20)
	data, commit := true, true
	env.Spawn("data", func(p *sim.Proc) {
		data = f.WriteExtents(p, 0, 4608, []Extent{{Off: 0, Size: 512, Payload: "hdr"}, {Off: 512, Size: 4096, Payload: "slot"}}, Direct)
	})
	env.Spawn("commit", func(p *sim.Proc) {
		commit = f.WriteCommit(p, []Extent{{Off: 1 << 20, Size: 512, Payload: "commit"}})
	})
	env.Spawn("power-cut", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond) // both commands are in the device
		f.RecoverExtents()
	})
	env.Run()
	if data || commit {
		t.Errorf("writes in flight across the power cut report success: data=%v commit=%v", data, commit)
	}
	if offs := f.DurableOffsets(); len(offs) != 0 || len(f.extents) != 0 {
		t.Errorf("writes in flight across the power cut placed durable extents %v, %d logical", offs, len(f.extents))
	}
	// The next incarnation's writes land as usual.
	env.Spawn("after", func(p *sim.Proc) {
		data = f.WriteExtents(p, 0, 512, []Extent{{Off: 0, Size: 512, Payload: "hdr2"}}, Direct)
	})
	env.Run()
	if d, ok := f.PeekDurable(0); !data || !ok || d.Payload != "hdr2" {
		t.Errorf("write after the restart: ok=%v durable=%+v", data, d)
	}
}
