package pagecache

import (
	"testing"

	"hybridkv/internal/sim"
)

// TestPunchDropsDeadPagesOnly writes a 1 MB region of slot-like extents,
// drains it, rewrites its first half, and punches three slots: one
// page-aligned slot in the dirty half, one that straddles a page boundary on
// both sides (its first and last pages are shared with live neighbours), and
// one page-aligned slot in the clean half. Then it drains the cache again.
// Checked:
//   - the dirty pages wholly inside a punched slot leave the dirty set
//     unwritten, counted by PunchedPages and by taken;
//   - the punched clean pages leave the cache;
//   - the second drain writes exactly the unpunched dirty pages, the two
//     boundary pages among them;
//   - the punched extents are gone from the logical and the durable view,
//     their neighbours are not.
func TestPunchDropsDeadPagesOnly(t *testing.T) {
	const ps, mb = 4096, 1 << 20
	// Slots by name: a is pages 0–15; h is a header-like extent in page 16;
	// s straddles pages 16–26 and holds pages 17–25 whole; n follows it in
	// page 26; e is pages 160–167, in the half that stays clean.
	a := Extent{Off: 0, Size: 16 * ps}
	h := Extent{Off: 16 * ps, Size: 512}
	s := Extent{Off: 16*ps + 512, Size: 10 * ps}
	n := Extent{Off: s.Off + int64(s.Size), Size: 4 * ps}
	e := Extent{Off: 160 * ps, Size: 8 * ps}
	const dirtyPunched, cleanPunched = 16 + 9, 8
	for _, prof := range drives {
		t.Run(prof.name, func(t *testing.T) {
			env, c, f := writebackRig(prof.p)
			dev := c.dev
			resident := func(i int64) bool { return c.pages.get(pageKey{f.id, i}) != nil }
			drain := func() {
				for c.Dirty() > 0 {
					c.Kick()
					env.Run() // no driver: the writeback the Kick starts is all that runs
				}
			}
			exts := []Extent{a, h, s, n, e}
			sim.Drive(t, env, "write", func(p *sim.Proc) {
				if !f.WriteExtents(p, 0, mb, exts, Cached) {
					t.Fatal("region write refused")
				}
			})
			drain()
			sim.Drive(t, env, "rewrite", func(p *sim.Proc) {
				if !f.WriteExtents(p, 0, mb/2, exts[:4], Cached) {
					t.Fatal("rewrite refused")
				}
			})
			if c.Dirty() != mb/2/ps {
				t.Fatalf("%d pages dirty after the rewrite, want %d", c.Dirty(), mb/2/ps)
			}

			dirty, taken, written := c.Dirty(), c.taken, dev.BytesWrite
			for _, x := range []Extent{a, s, e} {
				f.Punch(x.Off)
			}
			if c.PunchedPages != dirtyPunched {
				t.Errorf("PunchedPages %d, want the %d dirty pages wholly inside a punched slot", c.PunchedPages, dirtyPunched)
			}
			if got := c.taken - taken; got != dirtyPunched {
				t.Errorf("taken rose by %d, want %d", got, dirtyPunched)
			}
			if got := dirty - c.Dirty(); got != dirtyPunched {
				t.Errorf("the dirty set shrank by %d pages, want %d", got, dirtyPunched)
			}
			for i := int64(160); i < 168; i++ {
				if resident(i) {
					t.Errorf("punched clean page %d still resident", i)
				}
			}
			for _, i := range []int64{16, 26} {
				if !resident(i) {
					t.Errorf("boundary page %d punched", i)
				}
			}
			if dev.BytesWrite != written {
				t.Errorf("a punch wrote %d bytes to the device", dev.BytesWrite-written)
			}

			drain()
			if want := int64(dirty-dirtyPunched) * ps; dev.BytesWrite-written != want {
				t.Errorf("the second drain wrote %d bytes, want %d (the unpunched dirty pages)", dev.BytesWrite-written, want)
			}
			for _, x := range []Extent{a, s, e} {
				if _, ok := f.Peek(x.Off); ok {
					t.Errorf("punched extent at %d still readable", x.Off)
				}
				if _, ok := f.PeekDurable(x.Off); ok {
					t.Errorf("punched extent at %d still durable", x.Off)
				}
			}
			for _, x := range []Extent{h, n} {
				if _, ok := f.Peek(x.Off); !ok {
					t.Errorf("live neighbour at %d lost its extent", x.Off)
				}
			}
		})
	}
}

// TestPunchWithoutExtentDropsNothing: a punch where no extent lies (never
// written, or already discarded) leaves every page as it is.
func TestPunchWithoutExtentDropsNothing(t *testing.T) {
	env, c, f := writebackRig(drives[0].p)
	sim.Drive(t, env, "write", func(p *sim.Proc) { f.Write(p, 0, 64*1024, "x", Cached) })
	f.Punch(4096)
	f.Punch(0)
	f.Punch(0)
	if c.Dirty() != 0 || c.PunchedPages != 16 {
		t.Errorf("after one punch of a 16-page extent and two of nothing: %d dirty, %d punched; want 0 and 16", c.Dirty(), c.PunchedPages)
	}
}
