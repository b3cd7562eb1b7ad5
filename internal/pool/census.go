package pool

import (
	"fmt"
	"slices"
	"strings"
)

// Tally is one list's census at a drained quiesce (DESIGN §16): Made and Free
// are the list's, Walked the distinct held records a walk over the list's
// long-lived holders visited, Counted those an exception its owner counts
// keeps for good. Wrong names each walked record whose holds differ from the
// holders the walk found — a stray hold, or one a holder never took — and a
// list with more records free than it made: records another list made were
// put back on it.
type Tally struct {
	List                        string
	Made, Free, Walked, Counted int
	Wrong                       []string
}

// Walk counts the holders a walk finds of each record. A record built by hand
// counts nothing, visited or not.
type Walk[T any, P Record[T]] struct{ visits map[P]int }

// Visit notes one holder of r.
func (w *Walk[T, P]) Visit(r P) {
	if Holders(r) == 0 {
		return
	}
	if w.visits == nil {
		w.visits = make(map[P]int)
	}
	w.visits[r]++
}

// Count tallies l against w, the walk over its long-lived holders (nil: it
// has none), with counted records kept for good. Wrong names a record by its
// String method, or else by its type and address.
func Count[T any, P Record[T]](list string, l *List[T, P], w *Walk[T, P], counted int) Tally {
	t := Tally{List: list, Made: l.Made, Free: l.Len(), Counted: counted}
	if t.Free > t.Made {
		t.Wrong = append(t.Wrong, fmt.Sprintf("%d more free than made: put back on the wrong list", t.Free-t.Made))
	}
	if w == nil {
		return t
	}
	for r, visits := range w.visits { // order-free: a count, and Err sorts Wrong
		n := Holders(r)
		if n > 0 {
			t.Walked++
		}
		if n != visits {
			what := fmt.Sprintf("%T %p", r, r)
			if s, ok := any(r).(fmt.Stringer); ok {
				what = s.String()
			}
			t.Wrong = append(t.Wrong, fmt.Sprintf("%s: %d holds, %d holders walked", what, n, visits))
		}
	}
	return t
}

// Census is every list's tally.
type Census []Tally

// Err names each list with records unaccounted for — neither free, walked
// nor counted: let go of without being given back, or held by something no
// walk knows — and each wrong record; nil when there is none.
func (c Census) Err() error {
	var bad []string
	for _, t := range c {
		if n := t.Made - t.Free - t.Walked - t.Counted; n != 0 {
			bad = append(bad, fmt.Sprintf("%s: %d unaccounted (%d made, %d free, %d walked, %d counted)",
				t.List, n, t.Made, t.Free, t.Walked, t.Counted))
		}
		for _, w := range slices.Sorted(slices.Values(t.Wrong)) {
			bad = append(bad, t.List+": "+w)
		}
	}
	if bad == nil {
		return nil
	}
	return fmt.Errorf("pool census: %s", strings.Join(bad, "; "))
}
