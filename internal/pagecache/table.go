package pagecache

// pageTable is the cache's index of resident pages by (file, idx): an
// open-addressed array of page records, linear probing from a Fibonacci-hashed
// home slot, at most half full. A bounded cache sizes it once for MaxPages, so
// paging allocates nothing however large its files grow; only an unbounded
// cache (MaxPages ≤ 0) doubles it when it passes half full. Deletion shifts
// the rest of the probe run back into the hole, so there are no tombstones
// and a lookup stops at the first empty slot.
type pageTable struct {
	slots []*page // length a power of two; nil is an empty slot
	shift uint    // 64 - log2(len(slots)): a hash's top bits are its home
	n     int     // resident pages
	grow  bool    // unbounded: double past half full
}

// minTableSlots is the smallest table, and an unbounded cache's first one.
const minTableSlots = 16

// newPageTable returns a table for at most maxPages resident pages, or a
// growing one when maxPages ≤ 0.
func newPageTable(maxPages int) pageTable {
	size := minTableSlots
	for size < 2*maxPages {
		size *= 2
	}
	t := pageTable{grow: maxPages <= 0}
	t.alloc(size)
	return t
}

func (t *pageTable) alloc(size int) {
	t.slots = make([]*page, size)
	t.shift = 64
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
}

// home is k's first probe slot: the top bits of a Fibonacci multiply of the
// page index XORed with the file id's own multiply. A file id only shifted
// into high bits would offset every file's pages by a multiple of the same
// stride, piling the files' same pages into shared runs.
func (t *pageTable) home(k pageKey) int {
	return int((uint64(k.file)*0xD6E8FEB86659FD93 ^ uint64(k.idx)) * 0x9E3779B97F4A7C15 >> t.shift)
}

// len is the number of resident pages.
func (t *pageTable) len() int { return t.n }

// get returns the resident page k, or nil.
func (t *pageTable) get(k pageKey) *page {
	mask := len(t.slots) - 1
	for i := t.home(k); ; i = (i + 1) & mask {
		pg := t.slots[i]
		if pg == nil || pg.key == k {
			return pg
		}
	}
}

// add indexes pg, whose key must not be resident.
func (t *pageTable) add(pg *page) {
	if t.grow && 2*(t.n+1) > len(t.slots) {
		old := t.slots
		t.alloc(2 * len(old))
		for _, o := range old {
			if o != nil {
				t.place(o)
			}
		}
	}
	t.place(pg)
	t.n++
}

// place puts pg in the first empty slot of its probe run.
func (t *pageTable) place(pg *page) {
	mask := len(t.slots) - 1
	i := t.home(pg.key)
	for t.slots[i] != nil {
		i = (i + 1) & mask
	}
	t.slots[i] = pg
}

// del drops the resident page pg. Each later page of the probe run whose home
// does not lie cyclically in (hole, its slot] moves back into the hole, which
// moves on to where it was.
func (t *pageTable) del(pg *page) {
	mask := len(t.slots) - 1
	hole := t.home(pg.key)
	for t.slots[hole] != pg {
		if t.slots[hole] == nil {
			panic("pagecache: dropping a page that is not resident")
		}
		hole = (hole + 1) & mask
	}
	for j := (hole + 1) & mask; t.slots[j] != nil; j = (j + 1) & mask {
		if h := t.home(t.slots[j].key); (j-h)&mask >= (j-hole)&mask {
			t.slots[hole] = t.slots[j]
			hole = j
		}
	}
	t.slots[hole] = nil
	t.n--
}

// clear drops every page, keeping the array.
func (t *pageTable) clear() {
	clear(t.slots)
	t.n = 0
}
