// Package pool is the hold-counted free list the client's request records,
// the server's replies, the store's items and replication's frames and rounds
// are recycled through (DESIGN §16). A record embeds Holds, and its owner's
// List hands it out holding one hold, its caller's; whoever else may touch it
// holds it too (Hold) until their Drop, and the last drop puts it back on the
// list (Put), zeroed. A record built by hand counts nothing. A list belongs to
// one Env, which one goroutine advances at a time, so it takes no lock.
package pool

// freed is the count of a record on its list: a stray Hold or Drop of it
// fails where it happens.
const freed = -1

// Holds is the hold count a pooled record embeds.
type Holds struct{ n int32 }

func (h *Holds) holds() *Holds { return h }

// Record is a pointer to a record that embeds Holds.
type Record[T any] interface {
	*T
	holds() *Holds
}

// List is a free list of records of type T.
type List[T any, P Record[T]] struct {
	free []P
	// Made counts the records Get allocated because the list was empty.
	Made int
}

// Get hands out a zero record holding its caller's hold: the last one put
// back, else a new one. It panics if that one was touched after its last drop.
func (l *List[T, P]) Get() (r P) {
	if n := l.Len(); n == 0 {
		l.Made++
		r = new(T)
	} else {
		r, l.free = l.free[n-1], l.free[:n-1]
		if r.holds().n != freed {
			panic("pool: a free record was touched after its last drop")
		}
	}
	r.holds().n = 1
	return r
}

// Put zeroes r, whose last hold Drop just reported, and pushes it on the
// list. Putting a held or a free record panics.
func (l *List[T, P]) Put(r P) {
	if r.holds().n != 0 {
		panic("pool: Put of a record that is held or free")
	}
	*r = *new(T)
	r.holds().n = freed
	l.free = append(l.free, r)
}

// Len reports how many records are free on the list.
func (l *List[T, P]) Len() int { return len(l.free) }

// Hold adds a hold on r. A record built by hand counts nothing; holding a
// free one panics.
func Hold[T any, P Record[T]](r P) {
	switch h := r.holds(); {
	case h.n > 0:
		h.n++
	case h.n < 0:
		panic("pool: Hold of a record nobody holds")
	}
}

// Drop gives back one hold on r and reports whether it was the last: the
// caller then puts r back on its list. A record built by hand counts nothing;
// dropping a free one panics.
func Drop[T any, P Record[T]](r P) (last bool) {
	switch h := r.holds(); {
	case h.n > 0:
		h.n--
		return h.n == 0
	case h.n < 0:
		panic("pool: record dropped more often than held")
	}
	return false
}

// Holders reports how many hold r: 0 for a record built by hand, -1 for a
// free one.
func Holders[T any, P Record[T]](r P) int { return int(r.holds().n) }
