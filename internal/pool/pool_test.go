package pool

import (
	"strings"
	"testing"
)

// rec is a pooled record with a payload of its own.
type rec struct {
	Holds
	v int
}

// release drops one hold on r and puts it back on l if it was the last, as
// each record type's own release does.
func release(l *List[rec, *rec], r *rec) {
	if Drop(r) {
		l.Put(r)
	}
}

// TestListContract is the hold contract every pooled record follows: Get
// hands out a record holding its caller's hold, fresh only from an empty
// list, the last freed first; the last Drop reports itself, and Put zeroes the
// record; a Hold or a Drop of a free record, and a Get of a free record
// someone wrote over, panic where they happen; a record built by hand counts
// nothing.
func TestListContract(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, l *List[rec, *rec])
		// panics is part of the message the row must panic with; "" for none.
		panics string
	}{
		{"a fresh Get from an empty list", func(t *testing.T, l *List[rec, *rec]) {
			r := l.Get()
			if r == nil || Holders(r) != 1 || l.Made != 1 || l.Len() != 0 {
				t.Errorf("Get: %+v, made %d, free %d; want a record held once, made 1, free 0", r, l.Made, l.Len())
			}
		}, ""},
		{"LIFO reuse, Made and Len", func(t *testing.T, l *List[rec, *rec]) {
			a, b := l.Get(), l.Get()
			release(l, a)
			release(l, b)
			if l.Made != 2 || l.Len() != 2 {
				t.Errorf("two released: made %d, free %d; want 2, 2", l.Made, l.Len())
			}
			if got := l.Get(); got != b {
				t.Error("Get did not hand out the last record freed")
			}
			if got := l.Get(); got != a || l.Made != 2 || l.Len() != 0 {
				t.Errorf("second Get: %p (made %d, free %d), want the first record freed %p, made 2, free 0", got, l.Made, l.Len(), a)
			}
			if c := l.Get(); c == a || c == b || l.Made != 3 {
				t.Errorf("Get from the emptied list: made %d, want a third record", l.Made)
			}
		}, ""},
		{"only the last Drop frees, zeroed", func(t *testing.T, l *List[rec, *rec]) {
			r := l.Get()
			r.v = 7
			Hold(r)
			Hold(r)
			for i, want := range []int{2, 1} {
				if Drop(r) || Holders(r) != want {
					t.Fatalf("drop %d of 3: reported last, or %d holds left; want %d", i+1, Holders(r), want)
				}
			}
			if !Drop(r) {
				t.Fatal("the third drop of three holds did not report the last")
			}
			l.Put(r)
			if r.v != 0 || Holders(r) != freed || l.Len() != 1 {
				t.Errorf("freed: %+v, %d holds, free %d; want zeroed, free, on the list", *r, Holders(r), l.Len())
			}
			if again := l.Get(); again != r || Holders(again) != 1 || again.v != 0 {
				t.Errorf("Get after the free: %+v, want the zeroed record held once", *again)
			}
		}, ""},
		{"Hold of a free record", func(t *testing.T, l *List[rec, *rec]) {
			r := l.Get()
			release(l, r)
			Hold(r)
		}, "Hold of a record nobody holds"},
		{"Drop below zero", func(t *testing.T, l *List[rec, *rec]) {
			r := l.Get()
			release(l, r)
			Drop(r)
		}, "dropped more often than held"},
		{"Put of a held record", func(t *testing.T, l *List[rec, *rec]) {
			l.Put(l.Get())
		}, "held or free"},
		{"Get of a free record written over", func(t *testing.T, l *List[rec, *rec]) {
			r := l.Get()
			release(l, r)
			*r = rec{v: 1} // a holder that let go writes through its stale pointer
			l.Get()
		}, "touched after its last drop"},
		{"a record built by hand counts nothing", func(t *testing.T, l *List[rec, *rec]) {
			r := &rec{v: 1}
			Hold(r)
			if Drop(r) || Drop(r) || Holders(r) != 0 || r.v != 1 || l.Made != 0 || l.Len() != 0 {
				t.Errorf("a record built by hand: %+v, %d holds, made %d, free %d; want it untouched and the list too",
					*r, Holders(r), l.Made, l.Len())
			}
		}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if tc.panics == "" && msg != "" || !strings.Contains(msg, tc.panics) {
					t.Errorf("panicked with %q, want %q", msg, tc.panics)
				}
			}()
			tc.run(t, new(List[rec, *rec]))
		})
	}
}

// A warm hand-out, a second holder's hold and both drops allocate nothing.
func TestListAllocationCeiling(t *testing.T) {
	var l List[rec, *rec]
	cycle := func() {
		r := l.Get()
		Hold(r)
		release(&l, r)
		release(&l, r)
	}
	cycle()
	if got := testing.AllocsPerRun(1000, cycle); got != 0 {
		t.Errorf("a warm Get/Hold/Drop/Drop: %v allocations, want 0", got)
	}
	if l.Made != 1 {
		t.Errorf("made %d records, want 1", l.Made)
	}
}

// BenchmarkCycle is the list's host-cost line: a warm Get, Hold, Drop, Drop.
func BenchmarkCycle(b *testing.B) {
	var l List[rec, *rec]
	b.ReportAllocs()
	for b.Loop() {
		r := l.Get()
		Hold(r)
		release(&l, r)
		release(&l, r)
	}
}
