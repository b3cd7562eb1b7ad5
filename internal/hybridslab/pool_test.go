package hybridslab

import (
	"strings"
	"testing"
	"unsafe"

	"hybridkv/internal/blockdev"
	"hybridkv/internal/pool"
	"hybridkv/internal/sim"
)

// The hold count and the owner pointer fit in the item as it was: the count
// sits in the padding after Flags, and the generation shrank to 32 bits. An
// item per key is what a store keeps resident, so a field that grows it has
// to be a decision.
func TestItemSize(t *testing.T) {
	if got := unsafe.Sizeof(Item{}); got > 128 {
		t.Errorf("Item is %d bytes, ceiling 128", got)
	}
}

// mustPanic runs fn in a process of env and fails unless the run panics with
// a message containing want (the kernel re-raises a process's panic as an
// error naming it).
func mustPanic(t *testing.T, env *sim.Env, what, want string, fn func(p *sim.Proc)) {
	t.Helper()
	defer func() {
		if err, _ := recover().(error); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: panicked with %v, want %q", what, err, want)
		}
	}()
	sim.Drive(t, env, what, fn)
}

// A stored item's last hold puts it back on its manager's free list, zeroed,
// and the next NewItem hands that same item out again. Every use of an item
// nobody holds panics — it may be another key's by then — and so does handing
// out a free item someone wrote to, and unholding below zero.
func TestItemHolds(t *testing.T) {
	env := sim.NewEnv()
	m := newManager(env, 16<<20, PolicyDirect, false, blockdev.SATA())
	it := m.NewItem()
	it.Key, it.Value, it.ValueSize = "k", "v", 100
	sim.Drive(t, env, "store", func(p *sim.Proc) {
		if err := m.Store(p, it); err != nil {
			t.Fatal(err)
		}
	})
	if n := pool.Holders(it); n != 2 {
		t.Fatalf("a stored item the caller still holds has %d holds, want 2", n)
	}
	m.Release(it)
	it.Unhold()
	if m.Items.Len() != 1 || *it != (Item{Holds: it.Holds}) || pool.Holders(it) != -1 {
		t.Fatalf("released and unheld: free list %d, item %+v", m.Items.Len(), *it)
	}
	for _, tc := range []struct {
		op string
		fn func(p *sim.Proc)
	}{
		{"Store", func(p *sim.Proc) { m.Store(p, it) }},
		{"Load", func(p *sim.Proc) { m.Load(p, it) }},
		{"Touch", func(*sim.Proc) { m.Touch(it) }},
		{"Release", func(*sim.Proc) { m.Release(it) }},
		{"Hold", func(*sim.Proc) { it.Hold() }},
	} {
		mustPanic(t, env, tc.op+" of a free item", "nobody holds", tc.fn)
	}
	mustPanic(t, env, "Unhold of a free item", "more often than held", func(*sim.Proc) { it.Unhold() })

	if again := m.NewItem(); again != it || m.Items.Made != 1 {
		t.Fatalf("NewItem after a release: %p (made %d), want the released %p", again, m.Items.Made, it)
	}
	it.Unhold()
	it.Key = "written after its last hold"
	mustPanic(t, env, "NewItem of a touched free item", "touched after its last Unhold", func(*sim.Proc) { m.NewItem() })
}

// An item of an incarnation a cold restart tore down is never reused: its last
// hold leaves it to the GC, and it counts no holds — a worker suspended across
// the restart may still use it. A free item survives the restart as free.
func TestItemsOfAnOlderIncarnationAreNotReused(t *testing.T) {
	env := sim.NewEnv()
	m := newManager(env, 16<<20, PolicyDirect, true, blockdev.SATA())
	live, spare := m.NewItem(), m.NewItem()
	live.Key, live.ValueSize = "k", 100
	spare.Unhold()
	sim.Drive(t, env, "restart", func(p *sim.Proc) {
		if err := m.Store(p, live); err != nil {
			t.Fatal(err)
		}
		m.Recover(p)
		m.Release(live) // stale: ignored, and its residency hold with it
		live.Unhold()
		live.Unhold() // uncounted: no panic
	})
	if m.Items.Len() != 1 {
		t.Fatalf("%d items free after the restart, want only the spare %p", m.Items.Len(), spare)
	}
	if it := m.NewItem(); it != spare {
		t.Fatalf("NewItem after the restart handed out %p, want the spare %p", it, spare)
	}
}
