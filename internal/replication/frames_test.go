package replication

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// fillFrame builds a frame of kind off r's list, its slices taken off the
// spare stacks as the scrub and the migration take them, and filled with
// values that name tag.
func fillFrame(r *Replicator, kind frameKind, tag uint64) *frame {
	f := r.newFrame(kind, "")
	if kind != frameSegManifest {
		f.Buckets = r.frames.spareBuckets()
		for i := range uint64(4) {
			f.Buckets = append(f.Buckets, tag<<8|i)
		}
	}
	if kind != frameDigest {
		f.Entries = r.frames.spareEntries()
		for i := range uint64(3) {
			f.Entries = append(f.Entries, KeyEpoch{Key: fmt.Sprintf("k%d:%d", tag, i), Epoch: tag, Sum: i})
		}
	}
	return f
}

// A frame corrupted in flight is read after its sender may have let go of the
// original: its transfer gives the post's hold back at the last delivery,
// while the reader still holds what was delivered. Whatever that reader holds
// must still carry the frame's own digest and entries once the original's
// last hold is gone and the next frame off the same list has been filled.
func TestCorruptCopyOutlivesRecycle(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind frameKind
	}{{"digest", frameDigest}, {"diff", frameDiff}, {"manifest", frameSegManifest}} {
		kind := tc.kind
		t.Run(tc.name, func(t *testing.T) {
			r := &Replicator{}
			fillFrame(r, kind, 1).Release() // the stacks hold a spare of each slice the kind carries
			f := fillFrame(r, kind, 2)
			buckets, entries := slices.Clone(f.Buckets), slices.Clone(f.Entries)
			g := f.CorruptCopy().(*frame)
			g.Retain() // the delivery's hold, its reader's
			f.Release()
			next := fillFrame(r, kind, 3)
			if !slices.Equal(g.Buckets, buckets) || !slices.Equal(g.Entries, entries) {
				t.Errorf("after the original's last release and the next frame's fill, the corrupt copy reads %v %v; want its own %v %v",
					g.Buckets, g.Entries, buckets, entries)
			}
			g.Release()
			next.Release()
			if made, free := r.frames.Made, r.frames.Len(); free != made {
				t.Errorf("%d frames made, %d free; want every one back", made, free)
			}
		})
	}
}

// sortedSharedKeys hands out the replicator's one key list: asking for it
// again before doneKeys gives it back panics, where a second lane handling
// digests or diffs would overwrite the list under the first.
func TestSortedSharedKeysIsNotReentrant(t *testing.T) {
	r := &Replicator{}
	r.sortedSharedKeys(1, nil)
	r.doneKeys()
	r.sortedSharedKeys(1, nil) // given back: a second use is fine
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "re-entered") {
			t.Errorf("a second sortedSharedKeys before doneKeys panicked with %q, want the re-entry panic", msg)
		}
	}()
	r.sortedSharedKeys(1, nil)
}
