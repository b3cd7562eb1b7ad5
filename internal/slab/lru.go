package slab

// LRU is an intrusive doubly-linked recency list. Memcached keeps one per
// slab class; the head is the most recently used entry and the tail is the
// eviction candidate. The zero value is an empty list.
type LRU[T any] struct {
	head, tail *LRUEntry[T]
	n          int
}

// LRUEntry is one node; embed or hold one per item.
type LRUEntry[T any] struct {
	Value      T
	prev, next *LRUEntry[T]
	list       *LRU[T]
}

// Len returns the number of entries.
func (l *LRU[T]) Len() int { return l.n }

// PushFront inserts e at the head (most recently used).
func (l *LRU[T]) PushFront(e *LRUEntry[T]) {
	if e.list != nil {
		panic("slab: LRU entry already on a list")
	}
	e.list = l
	e.prev = nil
	e.next = l.head
	if l.head != nil {
		l.head.prev = e
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
	l.n++
}

// Remove unlinks e from its list.
func (l *LRU[T]) Remove(e *LRUEntry[T]) {
	if e.list != l {
		panic("slab: LRU entry not on this list")
	}
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next, e.list = nil, nil, nil
	l.n--
}

// Touch moves e to the head (cache-update stage of a hit).
func (l *LRU[T]) Touch(e *LRUEntry[T]) {
	if e.list != l {
		panic("slab: LRU entry not on this list")
	}
	if l.head == e {
		return
	}
	l.Remove(e)
	l.PushFront(e)
}

// Back returns the least recently used entry, or nil.
func (l *LRU[T]) Back() *LRUEntry[T] { return l.tail }

// Prev returns the entry closer to the front, or nil.
func (e *LRUEntry[T]) Prev() *LRUEntry[T] { return e.prev }

// PopBack removes and returns the LRU entry, or nil when empty.
func (l *LRU[T]) PopBack() *LRUEntry[T] {
	e := l.tail
	if e != nil {
		l.Remove(e)
	}
	return e
}
