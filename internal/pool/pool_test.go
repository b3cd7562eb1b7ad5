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
// someone wrote over, panic where they happen; a census finds a record put
// back on a list that did not make it; a record built by hand counts nothing.
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
		{"a record put back on another list", func(t *testing.T, l *List[rec, *rec]) {
			var other List[rec, *rec]
			release(&other, l.Get())
			err := Census{Count("mine", l, nil, 0), Count("other", &other, nil, 0)}.Err()
			if err == nil || !strings.Contains(err.Error(), "mine: 1 unaccounted") ||
				!strings.Contains(err.Error(), "other: 1 more free than made") {
				t.Errorf("census after the crossing: %v; want the record missing on one list and named free on the other", err)
			}
		}, ""},
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

// cycleModel returns a step that makes a warm Get, a second holder's Hold and
// both Drops; the list makes one record.
func cycleModel() (step func()) {
	var l List[rec, *rec]
	return func() {
		r := l.Get()
		Hold(r)
		release(&l, r)
		release(&l, r)
		if l.Made != 1 {
			panic("cycle model: a warm Get made a record")
		}
	}
}

// allocTable is the list's line of make allocs: a cycle allocates nothing.
var allocTable = []struct {
	name    string
	model   func() (step func())
	ceiling float64
}{
	{"Cycle", cycleModel, 0},
}

// TestListAllocationCeiling logs each row's name=count for make allocs.
func TestListAllocationCeiling(t *testing.T) {
	for _, row := range allocTable {
		t.Run(row.name, func(t *testing.T) {
			step := row.model()
			step() // warm: pools, rings and maps at size
			got := testing.AllocsPerRun(1000, step)
			if t.Logf("%s=%v", row.name, got); got > row.ceiling {
				t.Errorf("%s=%v, ceiling %v", row.name, got, row.ceiling)
			}
		})
	}
}

// BenchmarkAllocs runs allocTable's rows as sub-benchmarks.
func BenchmarkAllocs(b *testing.B) {
	for _, row := range allocTable {
		b.Run(row.name, func(b *testing.B) {
			step := row.model()
			step()
			b.ReportAllocs()
			for b.Loop() {
				step()
			}
		})
	}
}
