package blockdev

import (
	"sort"
	"testing"
	"testing/quick"

	"hybridkv/internal/sim"
)

// writeEnds issues one write per size on a fresh drive, the i-th at
// offsets[i], and returns when each completed.
func writeEnds(prof Profile, sizes []int, offsets []sim.Time) []sim.Time {
	env := sim.NewEnv()
	d := New(env, prof, 1<<40)
	ends := make([]sim.Time, len(sizes))
	for i, size := range sizes {
		env.SpawnAt(offsets[i], "w", func(p *sim.Proc) {
			d.ServeRaw(p, true, size)
			ends[i] = p.Now()
		})
	}
	env.Run()
	return ends
}

// TestWriteBandwidthShared pins the shared write bandwidth on SATA: writes
// in flight together overlap their bases but move their bytes one at a
// time, the smallest first, and a write alone is served at WriteTime.
func TestWriteBandwidthShared(t *testing.T) {
	prof := SATA()
	const mb, kb4 = 1 << 20, 4 << 10
	x := func(n int) sim.Time { return sim.TransferTime(n, prof.WriteBps) }
	base := prof.WriteBase
	for _, tc := range []struct {
		name    string
		sizes   []int
		offsets []sim.Time
		want    []sim.Time
	}{
		{"alone", []int{mb}, []sim.Time{0}, []sim.Time{prof.WriteTime(mb)}},
		{"four 1 MB together", []int{mb, mb, mb, mb}, make([]sim.Time, 4),
			[]sim.Time{base + x(mb), base + 2*x(mb), base + 3*x(mb), base + 4*x(mb)}},
		// The small write goes ahead and costs what it costs alone; the
		// large one loses exactly the small one's transfer.
		{"4 KB beside 1 MB", []int{mb, kb4}, []sim.Time{0, sim.Millisecond},
			[]sim.Time{prof.WriteTime(mb) + x(kb4), sim.Millisecond + prof.WriteTime(kb4)}},
		// Back to back: the second's base overlaps the first's transfer, so
		// the pair costs one base less than two solo writes.
		{"second arrives at the first's end minus a base", []int{mb, mb}, []sim.Time{0, x(mb)},
			[]sim.Time{prof.WriteTime(mb), x(mb) + prof.WriteTime(mb)}},
	} {
		got := writeEnds(prof, tc.sizes, tc.offsets)
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: write %d ends at %v, want %v", tc.name, i, got[i], tc.want[i])
			}
		}
	}
}

// TestWaitingWritesLeaveChannelsToReads: eight 1 MB writes issued at once
// on the 4-channel SATA drive queue for the write bandwidth, not for the
// channels, so a read issued 1 ms later is served at once, in ReadTime.
func TestWaitingWritesLeaveChannelsToReads(t *testing.T) {
	env := sim.NewEnv()
	d := New(env, SATA(), 1<<40)
	for i := 0; i < 8; i++ {
		env.Spawn("w", func(p *sim.Proc) { d.ServeRaw(p, true, 1<<20) })
	}
	var took sim.Time
	env.SpawnAt(sim.Millisecond, "r", func(p *sim.Proc) {
		d.ServeRaw(p, false, 4096)
		took = p.Now() - sim.Millisecond
	})
	end := env.Run()
	if want := SATA().ReadTime(4096); took != want {
		t.Errorf("read beside eight queued writes took %v, want %v", took, want)
	}
	if want := SATA().WriteBase + 8*sim.TransferTime(1<<20, SATA().WriteBps); end != want {
		t.Errorf("eight 1 MB writes ended at %v, want one base and eight transfers, %v", end, want)
	}
}

// Property: up to one write per channel issued together end smallest
// first. With the solo transfers sorted x1 ≤ … ≤ xn, the k-th ends at
// WriteBase + x1 + … + xk: the bases overlap, the transfers follow one
// another.
func TestWriteShareClosedFormProperty(t *testing.T) {
	f := func(raw []uint32, nvme bool) bool {
		prof := SATA()
		if nvme {
			prof = NVMe()
		}
		sizes := make([]int, 0, prof.Channels)
		for _, r := range raw {
			if len(sizes) == prof.Channels {
				break
			}
			sizes = append(sizes, int(r%(16<<20)))
		}
		got := writeEnds(prof, sizes, make([]sim.Time, len(sizes)))
		sort.Ints(sizes)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		var done sim.Time
		for k, size := range sizes {
			x := sim.TransferTime(size, prof.WriteBps)
			done += x
			if want := prof.WriteBase + done; got[k] != want {
				t.Logf("sizes %v: end %d at %v, want %v", sizes, k, got[k], want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: however writes arrive, none is served faster than alone, and
// together they never move bytes faster than WriteBps: everything they
// wrote fits between the first arrival's base and the last end.
func TestWriteShareBandwidthBoundProperty(t *testing.T) {
	f := func(raw []uint32, gaps []uint16) bool {
		prof := SATA()
		n := min(len(raw), 12)
		sizes, offsets := make([]int, n), make([]sim.Time, n)
		var at sim.Time
		total := 0
		for i := 0; i < n; i++ {
			sizes[i] = int(raw[i] % (4 << 20))
			total += sizes[i]
			if i < len(gaps) {
				at += sim.Time(gaps[i]) * 50 * sim.Nanosecond // up to ~3.3 ms apart
			}
			offsets[i] = at
		}
		if n == 0 {
			return true
		}
		ends := writeEnds(prof, sizes, offsets)
		last := ends[0]
		for i := range ends {
			if ends[i]-offsets[i] < prof.WriteTime(sizes[i]) {
				t.Logf("write %d of %d B took %v, below its solo time", i, sizes[i], ends[i]-offsets[i])
				return false
			}
			last = max(last, ends[i])
		}
		if span := last - offsets[0] - prof.WriteBase; span+sim.Time(n) < sim.TransferTime(total, prof.WriteBps) {
			t.Logf("%d B written in %v, above WriteBps", total, span)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
