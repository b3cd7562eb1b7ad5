package blockdev

import (
	"testing"

	"hybridkv/internal/sim"
)

// rotDev builds a device with n durable extents of size sz at offsets 0, sz,
// 2sz, … written at virtual time 0.
func rotDev(env *sim.Env, n, sz int) *Device {
	d := New(env, SATA(), 1<<30)
	env.Spawn("seed", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			off := int64(i * sz)
			d.WriteAt(p, off, sz, i)
		}
	})
	env.Run()
	return d
}

// Bit-rot is a pure hash of (seed, offset): the same seed selects the same
// extents at the same instants on every device, a different seed selects a
// different set, and arming rot draws nothing from the fault RNG stream.
func TestBitRotDeterministicPerSeed(t *testing.T) {
	rotten := func(seed int64) []bool {
		env := sim.NewEnv()
		d := rotDev(env, 200, 4096)
		d.AddBitRot(seed, 0, sim.Millisecond, 0.3)
		out := make([]bool, 200)
		for i := range out {
			out[i] = d.Rotten(int64(i*4096), sim.Millisecond)
		}
		return out
	}
	a, b := rotten(11), rotten(11)
	hits := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("extent %d: same-seed rot verdicts differ", i)
		}
		if a[i] {
			hits++
		}
	}
	if hits == 0 || hits == 200 {
		t.Fatalf("rate-0.3 rot hit %d of 200 extents", hits)
	}
	c := rotten(12)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different rot seeds corrupted identical extent sets")
	}
}

// Rot is latent until read, and a rewrite refreshes the cells: an extent
// re-persisted after its rot instant reads clean again, exactly how real
// latent sector errors behave under fresh programs.
func TestBitRotRewriteRefreshesCells(t *testing.T) {
	env := sim.NewEnv()
	d := rotDev(env, 50, 4096)
	d.AddBitRot(3, 0, sim.Millisecond, 1.0) // every extent rots inside [0, 1ms)
	victim := int64(-1)
	for i := 0; i < 50; i++ {
		if d.Rotten(int64(i*4096), sim.Millisecond) {
			victim = int64(i * 4096)
			break
		}
	}
	if victim < 0 {
		t.Fatal("rate-1.0 window rotted nothing")
	}
	// Before its rot instant the extent reads clean (find a pre-window time).
	if d.Rotten(victim, -1) {
		t.Error("extent rotten before the window opened")
	}
	// Rewrite after the whole window: WrittenAt now exceeds every candidate
	// rot instant, so the extent is clean again at any later read.
	env.Spawn("rewrite", func(p *sim.Proc) {
		p.Sleep(2 * sim.Millisecond)
		d.WriteAt(p, victim, 4096, "fresh")
	})
	env.Run()
	if d.Rotten(victim, env.Now()+sim.Second) {
		t.Error("rewritten extent still reads rotten")
	}
}

// A rotted read, a clean read, and an injected uncorrectable read error all
// charge the identical service time — the satellite-2 contract that keeps
// defense cells virtual-time-comparable to nodefense cells.
func TestRottedReadChargesNormalServiceTime(t *testing.T) {
	read := func(arm func(d *Device)) (elapsed sim.Time, payload any, ok bool) {
		env := sim.NewEnv()
		d := rotDev(env, 1, 4096)
		arm(d)
		env.Spawn("read", func(p *sim.Proc) {
			p.Sleep(sim.Millisecond) // read after any rot window closed
			t0 := p.Now()
			payload, ok = d.ReadAt(p, 0, 4096)
			elapsed = p.Now() - t0
		})
		env.Run()
		return elapsed, payload, ok
	}
	cleanT, cleanV, cleanOK := read(func(d *Device) {
	})
	// Window opens strictly after the seed write persisted, so rate 1.0
	// guarantees the extent's rot instant precedes the read.
	rotT, rotV, rotOK := read(func(d *Device) {
		d.AddBitRot(3, 200*sim.Microsecond, 300*sim.Microsecond, 1.0)
	})
	errT, _, errOK := read(func(d *Device) { d.SetFaults(1, 1.0, 0) })
	if !cleanOK || cleanV != 0 {
		t.Fatalf("clean read returned (%v, %v)", cleanV, cleanOK)
	}
	if !rotOK {
		t.Fatal("rotted read reported missing contents (that is the error path, not rot)")
	}
	if r, isRot := rotV.(Rotted); !isRot || r.Payload != 0 {
		t.Fatalf("rotted read returned %v, want Rotted wrapping the original payload", rotV)
	}
	if errOK {
		t.Fatal("injected read error returned contents")
	}
	if rotT != cleanT || errT != cleanT {
		t.Errorf("service times diverge: clean %v, rotted %v, read-error %v", cleanT, rotT, errT)
	}
}

// Arming bit-rot consumes no RNG draws: a device with rot armed produces the
// same injected-read-error sequence as its rot-free twin.
func TestBitRotDoesNotPerturbFaultRNG(t *testing.T) {
	errs := func(rot bool) int64 {
		env := sim.NewEnv()
		d := rotDev(env, 100, 4096)
		d.SetFaults(21, 0.5, 0)
		if rot {
			d.AddBitRot(8, 0, sim.Millisecond, 0.5)
		}
		env.Spawn("reads", func(p *sim.Proc) {
			p.Sleep(2 * sim.Millisecond)
			for i := 0; i < 100; i++ {
				d.ReadAt(p, int64(i*4096), 4096)
			}
		})
		env.Run()
		return d.ReadErrors
	}
	without, with := errs(false), errs(true)
	if without != with {
		t.Errorf("ReadErrors diverged: %d without rot, %d with", without, with)
	}
}

// RottenReads counts only reads that actually served rotted contents, and
// Rotten (the ground-truth oracle) counts nothing.
func TestRotReadCountsBites(t *testing.T) {
	env := sim.NewEnv()
	d := rotDev(env, 100, 4096)
	d.AddBitRot(8, 0, sim.Millisecond, 0.5)
	rotted := 0
	for i := 0; i < 100; i++ {
		if d.Rotten(int64(i*4096), sim.Second) {
			rotted++
		}
	}
	if d.RottenReads != 0 {
		t.Fatalf("oracle Rotten bumped RottenReads to %d", d.RottenReads)
	}
	env.Spawn("reads", func(p *sim.Proc) {
		p.Sleep(2 * sim.Millisecond)
		for i := 0; i < 100; i++ {
			d.ReadAt(p, int64(i*4096), 4096)
		}
	})
	env.Run()
	if d.RottenReads != int64(rotted) {
		t.Errorf("RottenReads = %d, oracle says %d extents were rotten", d.RottenReads, rotted)
	}
}
