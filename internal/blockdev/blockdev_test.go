package blockdev

import (
	"testing"
	"testing/quick"

	"hybridkv/internal/sim"
)

func TestServiceTimeModel(t *testing.T) {
	prof := SATA()
	if got, want := prof.ReadTime(0), prof.ReadBase; got != want {
		t.Errorf("zero-size read time %v, want base %v", got, want)
	}
	oneMB := prof.WriteTime(1 << 20)
	if oneMB <= prof.WriteBase {
		t.Errorf("1MB write time %v not above base", oneMB)
	}
	// 1 MB at 430 MB/s ≈ 2.44 ms (+70µs base).
	if oneMB < 2*sim.Millisecond || oneMB > 3*sim.Millisecond {
		t.Errorf("SATA 1MB write time %v outside [2ms,3ms]", oneMB)
	}
}

func TestNVMeFasterThanSATA(t *testing.T) {
	for _, size := range []int{4096, 32 * 1024, 256 * 1024, 1 << 20} {
		if NVMe().ReadTime(size) >= SATA().ReadTime(size) {
			t.Errorf("size %d: NVMe read not faster than SATA", size)
		}
		if NVMe().WriteTime(size) >= SATA().WriteTime(size) {
			t.Errorf("size %d: NVMe write not faster than SATA", size)
		}
	}
}

func TestWriteThenRead(t *testing.T) {
	env := sim.NewEnv()
	d := New(env, SATA(), 1<<30)
	var got any
	var ok bool
	env.Spawn("io", func(p *sim.Proc) {
		d.WriteAt(p, 4096, 32*1024, "item-7")
		got, ok = d.ReadAt(p, 4096, 32*1024)
	})
	end := env.Run()
	if !ok || got != "item-7" {
		t.Errorf("read back (%v,%v)", got, ok)
	}
	want := SATA().WriteTime(32*1024) + SATA().ReadTime(32*1024)
	if end != want {
		t.Errorf("elapsed %v, want %v", end, want)
	}
}

func TestReadUnwrittenReturnsNotOK(t *testing.T) {
	env := sim.NewEnv()
	d := New(env, NVMe(), 1<<30)
	var ok bool
	env.Spawn("io", func(p *sim.Proc) { _, ok = d.ReadAt(p, 0, 4096) })
	env.Run()
	if ok {
		t.Errorf("read of unwritten extent reported ok")
	}
}

func TestChannelParallelism(t *testing.T) {
	// 8 concurrent 1MB reads on a 4-channel SATA drive must take 2 rounds.
	env := sim.NewEnv()
	d := New(env, SATA(), 1<<30)
	for i := 0; i < 4; i++ {
		off := int64(i) << 20
		env.Spawn("w", func(p *sim.Proc) { d.WriteAt(p, off, 1<<20, i) })
	}
	env.Run()

	env2 := sim.NewEnv()
	d2 := New(env2, SATA(), 1<<30)
	for i := 0; i < 8; i++ {
		off := int64(i) << 20
		d2.Persist(off, 1<<20, 1<<20, i)
	}
	for i := 0; i < 8; i++ {
		off := int64(i) << 20
		env2.Spawn("r", func(p *sim.Proc) { d2.ReadAt(p, off, 1<<20) })
	}
	end := env2.Run()
	one := SATA().ReadTime(1 << 20)
	if end != 2*one {
		t.Errorf("8 reads on 4 channels took %v, want %v", end, 2*one)
	}
}

func TestNVMeParallelismBeatsSATAUnderLoad(t *testing.T) {
	run := func(prof Profile) sim.Time {
		env := sim.NewEnv()
		d := New(env, prof, 1<<30)
		for i := 0; i < 16; i++ {
			off := int64(i) * 4096
			d.Persist(off, 4096, 4096, i)
			env.Spawn("r", func(p *sim.Proc) { d.ReadAt(p, off, 4096) })
		}
		return env.Run()
	}
	sata, nvme := run(SATA()), run(NVMe())
	if float64(sata)/float64(nvme) < 4 {
		t.Errorf("16-deep 4K reads: SATA %v vs NVMe %v; want ≥4x gap", sata, nvme)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	env := sim.NewEnv()
	d := New(env, SATA(), 1<<20)
	defer func() {
		if recover() == nil {
			t.Errorf("out-of-capacity write did not panic")
		}
	}()
	env.Spawn("w", func(p *sim.Proc) { d.WriteAt(p, 1<<20-100, 4096, nil) })
	env.Run()
}

func TestStatsAndBusyTime(t *testing.T) {
	env := sim.NewEnv()
	d := New(env, SATA(), 1<<30)
	env.Spawn("io", func(p *sim.Proc) {
		d.WriteAt(p, 0, 1000, nil)
		d.ReadAt(p, 0, 1000)
		d.ServeRaw(p, true, 500)
	})
	env.Run()
	if d.Writes != 2 || d.Reads != 1 {
		t.Errorf("ops writes=%d reads=%d, want 2/1", d.Writes, d.Reads)
	}
	if d.BytesWrite != 1500 || d.BytesRead != 1000 {
		t.Errorf("bytes w=%d r=%d, want 1500/1000", d.BytesWrite, d.BytesRead)
	}
	if d.BusyTime <= 0 {
		t.Errorf("busy time not accumulated")
	}
}

// Property: service time is monotonic in size for any profile.
func TestServiceTimeMonotonicProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		sa, sb := int(a%(64<<20)), int(b%(64<<20))
		if sa > sb {
			sa, sb = sb, sa
		}
		for _, prof := range []Profile{SATA(), NVMe()} {
			if prof.ReadTime(sa) > prof.ReadTime(sb) {
				return false
			}
			if prof.WriteTime(sa) > prof.WriteTime(sb) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: writing then reading any extent returns the same payload.
func TestWriteReadRoundTripProperty(t *testing.T) {
	f := func(offs []uint16, tag uint64) bool {
		env := sim.NewEnv()
		d := New(env, NVMe(), 1<<30)
		seen := make(map[int64]uint64)
		ok := true
		env.Spawn("io", func(p *sim.Proc) {
			for i, o := range offs {
				off := int64(o) * 4096
				val := tag + uint64(i)
				d.WriteAt(p, off, 4096, val)
				seen[off] = val
			}
			for off, want := range seen {
				got, found := d.ReadAt(p, off, 4096)
				if !found || got != want {
					ok = false
				}
			}
		})
		env.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
