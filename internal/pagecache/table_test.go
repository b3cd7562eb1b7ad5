package pagecache

import (
	"fmt"
	"math/rand"
	"testing"
)

// all lists the resident pages in slot order.
func (t *pageTable) all() []*page {
	var pgs []*page
	for _, pg := range t.slots {
		if pg != nil {
			pgs = append(pgs, pg)
		}
	}
	return pgs
}

// audit checks the table against model, the same pages by key: n counts the
// occupied slots, and each page sits in the probe run that starts at its
// home, with no empty slot between the two (the run a lookup walks). It
// returns the sum of the pages' distances from their homes and how many of
// them wrapped past the array's end to get there.
func (t *pageTable) audit(model map[pageKey]*page) (displaced, wrapped int, err error) {
	mask := len(t.slots) - 1
	seen := 0
	for i, pg := range t.slots {
		if pg == nil {
			continue
		}
		seen++
		if model[pg.key] != pg {
			return 0, 0, fmt.Errorf("slot %d holds %v, which the model does not", i, pg.key)
		}
		h := t.home(pg.key)
		for j := h; j != i; j = (j + 1) & mask {
			if t.slots[j] == nil {
				return 0, 0, fmt.Errorf("%v at slot %d: hole at %d on the run from its home %d", pg.key, i, j, h)
			}
		}
		displaced += (i - h) & mask
		if i < h {
			wrapped++
		}
	}
	if seen != t.n || t.n != len(model) {
		return 0, 0, fmt.Errorf("%d pages in slots, %d counted, %d in the model", seen, t.n, len(model))
	}
	for k, pg := range model { // order-free: every key is looked up
		if got := t.get(k); got != pg {
			return 0, 0, fmt.Errorf("get(%v) = %p, want %p", k, got, pg)
		}
	}
	return displaced, wrapped, nil
}

// TestPageTableMatchesMap runs seeded random adds, lookups, deletions and
// clears against a map. Small tables over a few files' first pages make probe
// runs wrap past the array's end and deletions land mid-run; the unbounded
// table grows through several doublings. After every operation the table
// holds exactly the model's pages, each reachable from its home, and over the
// run a page sits on average at most half a slot from its home, what linear
// probing expects at load ½. There are more files than pages per file, so a
// home that ignored the file would pile the files' same pages into one run.
func TestPageTableMatchesMap(t *testing.T) {
	for _, tc := range []struct {
		maxPages, slots int // slots: the array the table starts with
		files, idx      int // keys drawn from files 1..files, pages 0..idx-1
	}{
		{8, 16, 8, 4},
		{32, 64, 8, 16},
		{0, minTableSlots, 16, 32},
	} {
		t.Run(fmt.Sprintf("max%d", tc.maxPages), func(t *testing.T) {
			tbl := newPageTable(tc.maxPages)
			if len(tbl.slots) != tc.slots {
				t.Fatalf("%d slots for MaxPages %d, want %d", len(tbl.slots), tc.maxPages, tc.slots)
			}
			rng := rand.New(rand.NewSource(int64(tc.slots)))
			model := map[pageKey]*page{}
			var displaced, pages, wrapped, clears, peak int
			for step := 0; step < 20000; step++ {
				k := pageKey{1 + rng.Intn(tc.files), int64(rng.Intn(tc.idx))}
				pg := model[k]
				switch r := rng.Intn(1000); {
				case r == 0:
					tbl.clear()
					clear(model)
					clears++
				case r < 450 && pg == nil && (tc.maxPages <= 0 || len(model) < tc.maxPages):
					pg = &page{key: k}
					tbl.add(pg)
					model[k] = pg
				case r < 800 && pg != nil:
					tbl.del(pg)
					delete(model, k)
				default:
					if got := tbl.get(k); got != pg {
						t.Fatalf("step %d: get(%v) = %p, want %p", step, k, got, pg)
					}
				}
				d, w, err := tbl.audit(model)
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				displaced, pages, wrapped = displaced+d, pages+len(model), wrapped+w
				peak = max(peak, len(model))
			}
			if tc.maxPages > 0 && len(tbl.slots) != tc.slots {
				t.Errorf("a bounded table grew to %d slots", len(tbl.slots))
			}
			if tc.maxPages <= 0 && 2*peak > len(tbl.slots) {
				t.Errorf("%d pages at the peak in %d slots: above half full", peak, len(tbl.slots))
			}
			if tc.maxPages <= 0 && len(tbl.slots) < 8*tc.slots {
				t.Errorf("the unbounded table ended at %d slots: it never grew through three doublings", len(tbl.slots))
			}
			if wrapped == 0 || clears == 0 {
				t.Errorf("the run never wrapped a probe run (%d) or cleared the table (%d)", wrapped, clears)
			}
			if mean := float64(displaced) / float64(pages); mean > 0.5 {
				t.Errorf("pages sit %.2f slots from their homes on average, want at most 0.5", mean)
			}
		})
	}
}
