package slab

import (
	"testing"
	"testing/quick"
)

func TestClassGeometry(t *testing.T) {
	a := New(Config{MemLimit: 8 << 20})
	if a.NumClasses() < 10 {
		t.Fatalf("only %d classes", a.NumClasses())
	}
	if a.Class(0).ChunkSize != 96 {
		t.Errorf("class 0 chunk %d, want 96", a.Class(0).ChunkSize)
	}
	last := a.Class(a.NumClasses() - 1)
	if last.ChunkSize != DefaultPageSize || last.ChunksPage != 1 {
		t.Errorf("top class %+v, want one 1MB chunk per page", last)
	}
	prev := 0
	for i := 0; i < a.NumClasses(); i++ {
		c := a.Class(i)
		if c.ChunkSize <= prev {
			t.Fatalf("class sizes not strictly increasing at %d: %d after %d", i, c.ChunkSize, prev)
		}
		if c.ChunksPage != a.Config().PageSize/c.ChunkSize {
			t.Errorf("class %d chunksPage %d inconsistent", i, c.ChunksPage)
		}
		prev = c.ChunkSize
	}
}

func TestClassForBoundaries(t *testing.T) {
	a := New(Config{MemLimit: 8 << 20})
	for _, size := range []int{1, 95, 96, 97, 1000, 32 * 1024, DefaultPageSize} {
		idx, ok := a.ClassFor(size)
		if !ok {
			t.Fatalf("size %d rejected", size)
		}
		if got := a.ChunkSize(idx); got < size {
			t.Errorf("size %d assigned class with chunk %d", size, got)
		}
		if idx > 0 && a.ChunkSize(idx-1) >= size {
			t.Errorf("size %d not in smallest fitting class", size)
		}
	}
	if _, ok := a.ClassFor(DefaultPageSize + 1); ok {
		t.Errorf("oversize item accepted")
	}
}

func TestAllocGrowsPagesUntilLimit(t *testing.T) {
	a := New(Config{MemLimit: 2 << 20})
	idx, _ := a.ClassFor(1024)
	perPage := a.Class(idx).ChunksPage
	// First alloc grows a page.
	if r := a.Alloc(idx); r != AllocNewPage {
		t.Fatalf("first alloc = %v, want AllocNewPage", r)
	}
	for i := 1; i < perPage; i++ {
		if r := a.Alloc(idx); r != AllocOK {
			t.Fatalf("alloc %d = %v, want AllocOK", i, r)
		}
	}
	if r := a.Alloc(idx); r != AllocNewPage {
		t.Fatalf("page-2 alloc = %v, want AllocNewPage", r)
	}
	for i := 1; i < perPage; i++ {
		a.Alloc(idx)
	}
	// Memory limit (2 pages) reached.
	if r := a.Alloc(idx); r != AllocNeedEvict {
		t.Fatalf("over-limit alloc = %v, want AllocNeedEvict", r)
	}
	if a.MemUsed() != 2<<20 {
		t.Errorf("MemUsed %d, want 2MB", a.MemUsed())
	}
}

func TestFreeEnablesReuseWithoutNewPage(t *testing.T) {
	a := New(Config{MemLimit: 1 << 20})
	idx, _ := a.ClassFor(64 * 1024)
	per := a.Class(idx).ChunksPage
	for i := 0; i < per; i++ {
		a.Alloc(idx)
	}
	if a.Alloc(idx) != AllocNeedEvict {
		t.Fatalf("expected NeedEvict at limit")
	}
	a.Free(idx)
	if r := a.Alloc(idx); r != AllocOK {
		t.Errorf("alloc after free = %v, want AllocOK", r)
	}
}

func TestFreeWithoutAllocPanics(t *testing.T) {
	a := New(Config{})
	defer func() {
		if recover() == nil {
			t.Errorf("unbalanced Free did not panic")
		}
	}()
	a.Free(0)
}

func TestUtilization(t *testing.T) {
	a := New(Config{MemLimit: 4 << 20})
	if a.Utilization() != 0 {
		t.Errorf("fresh allocator utilization %v", a.Utilization())
	}
	// The smallest class over a third of a page holds two chunks a page.
	idx, _ := a.ClassFor(DefaultPageSize/3 + 1)
	if per := a.Class(idx).ChunksPage; per != 2 {
		t.Fatalf("class %d holds %d chunks a page, want 2", idx, per)
	}
	a.Alloc(idx) // one page reserved, one of two chunks used
	if u, want := a.Utilization(), float64(a.ChunkSize(idx))/DefaultPageSize; u != want {
		t.Errorf("utilization %v, want %v (one chunk of the page)", u, want)
	}
}

// Property: ClassFor always returns the smallest class that fits.
func TestClassForSmallestFitProperty(t *testing.T) {
	a := New(Config{MemLimit: 8 << 20})
	f := func(raw uint32) bool {
		size := int(raw%uint32(DefaultPageSize)) + 1
		idx, ok := a.ClassFor(size)
		if !ok {
			return false
		}
		if a.ChunkSize(idx) < size {
			return false
		}
		return idx == 0 || a.ChunkSize(idx-1) < size
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: alloc/free sequences never corrupt chunk accounting.
func TestAllocFreeAccountingProperty(t *testing.T) {
	f := func(ops []bool) bool {
		a := New(Config{MemLimit: 4 << 20})
		idx, _ := a.ClassFor(4096)
		live := 0
		for _, alloc := range ops {
			if alloc {
				if r := a.Alloc(idx); r != AllocNeedEvict {
					live++
				}
			} else if live > 0 {
				a.Free(idx)
				live--
			}
		}
		c := a.Class(idx)
		return c.UsedChunks == live &&
			c.UsedChunks+c.FreeChunks == c.Pages*c.ChunksPage &&
			a.MemUsed() == int64(c.Pages)*int64(a.Config().PageSize)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLRUBasics(t *testing.T) {
	var l LRU[string]
	a := &LRUEntry[string]{Value: "a"}
	b := &LRUEntry[string]{Value: "b"}
	c := &LRUEntry[string]{Value: "c"}
	l.PushFront(a)
	l.PushFront(b)
	l.PushFront(c) // order: c b a
	if l.Len() != 3 || l.head != c || l.Back() != a {
		t.Fatalf("front=%v back=%v len=%d", l.head.Value, l.Back().Value, l.Len())
	}
	l.Touch(a) // order: a c b
	if l.head != a || l.Back() != b {
		t.Errorf("after touch front=%v back=%v", l.head.Value, l.Back().Value)
	}
	if got := l.PopBack(); got != b {
		t.Errorf("PopBack %v, want b", got.Value)
	}
	l.Remove(c)
	if l.Len() != 1 || l.head != a || l.Back() != a {
		t.Errorf("after removals len=%d", l.Len())
	}
	l.Remove(a)
	if l.PopBack() != nil || l.Len() != 0 {
		t.Errorf("empty list misbehaves")
	}
}

func TestLRUDoubleInsertPanics(t *testing.T) {
	var l LRU[int]
	e := &LRUEntry[int]{Value: 1}
	l.PushFront(e)
	defer func() {
		if recover() == nil {
			t.Errorf("double PushFront did not panic")
		}
	}()
	l.PushFront(e)
}

func TestLRURemoveForeignPanics(t *testing.T) {
	var l1, l2 LRU[int]
	e := &LRUEntry[int]{Value: 1}
	l1.PushFront(e)
	defer func() {
		if recover() == nil {
			t.Errorf("Remove from wrong list did not panic")
		}
	}()
	l2.Remove(e)
}

// Property: LRU Touch/Remove/PushFront maintain a consistent order with a
// reference slice implementation.
func TestLRUMatchesReferenceProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		var l LRU[int]
		entries := map[int]*LRUEntry[int]{}
		var ref []int // front..back
		next := 0
		for _, op := range ops {
			switch op % 3 {
			case 0: // push new
				e := &LRUEntry[int]{Value: next}
				entries[next] = e
				l.PushFront(e)
				ref = append([]int{next}, ref...)
				next++
			case 1: // touch random existing
				if len(ref) == 0 {
					continue
				}
				v := ref[int(op)%len(ref)]
				l.Touch(entries[v])
				out := []int{v}
				for _, x := range ref {
					if x != v {
						out = append(out, x)
					}
				}
				ref = out
			case 2: // pop back
				if len(ref) == 0 {
					if l.PopBack() != nil {
						return false
					}
					continue
				}
				e := l.PopBack()
				if e.Value != ref[len(ref)-1] {
					return false
				}
				ref = ref[:len(ref)-1]
			}
		}
		if l.Len() != len(ref) {
			return false
		}
		cur := l.head
		for _, want := range ref {
			if cur == nil || cur.Value != want {
				return false
			}
			cur = cur.next
		}
		return cur == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
