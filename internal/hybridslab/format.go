// On-SSD slab page format (crash consistency).
//
// Every flushed slab page occupies one arena region laid out as
//
//	[ header | n fixed-size item slots | commit record ]
//
// The header carries a magic, the slab class and chunk size, a commit epoch,
// a per-slot key digest and value length, and a checksum over all of it. The
// commit record is journaled as a separate small write *after* the data
// write completes, so a crash between the two leaves the page (or, for a
// merged batch flush, every page of the batch) uncommitted and therefore
// invisible to recovery. Header and commit record each model one 512-byte
// sector: a torn data or commit write can only ever persist a sector
// prefix, which recovery detects via the durable extent's Valid length and
// the checksum.
//
// Region sizes are stable across reuse (the free pool is keyed by exact
// size), so the header of a reused region always overwrites the old header
// at the region base and the new commit record always overwrites the old
// one at the region end. Stale interior slots from a previous incarnation
// are never consulted: recovery reads only the slots the (new) header
// enumerates, and a slot whose key digest or length disagrees with the
// header is discarded with the whole page.
package hybridslab

import (
	"hybridkv/internal/pagecache"
)

const (
	// PageHeaderSize / PageCommitSize are the on-media footprint of the page
	// header and commit record: one sector each.
	PageHeaderSize = 512
	PageCommitSize = 512

	pageMagic   = 0x48594252 // "HYBR"
	commitMagic = 0x434f4d54 // "COMT"
)

// itemMeta is the header's per-slot summary used to validate slots on
// recovery without trusting the slot contents.
type itemMeta struct {
	Digest uint64 // key digest (FNV-1a)
	Len    int    // value length
}

// pageHeader is the checksummed region header.
type pageHeader struct {
	Magic uint32
	Class int
	Chunk int
	Epoch uint64
	Items []itemMeta
	Sum   uint64
}

// commitRecord is the journaled commit for one region: a page is visible to
// recovery only when a commit record matching its header's epoch and extent
// is durable.
type commitRecord struct {
	Magic uint32
	Epoch uint64
	Base  int64 // file-relative region base
	Size  int64 // region size
	Sum   uint64
}

// itemRecord is a slot's on-media payload: the full key and metadata ride
// along with the value so recovery can rebuild the item index.
type itemRecord struct {
	Key       string
	Value     any
	ValueSize int
	Flags     uint32
	CAS       uint64
}

// headerSum checksums the header fields (Sum excluded).
func headerSum(h *pageHeader) uint64 {
	s := uint64(h.Magic)
	s = s*1099511628211 + uint64(h.Class)
	s = s*1099511628211 + uint64(h.Chunk)
	s = s*1099511628211 + h.Epoch
	for _, im := range h.Items {
		s = s*1099511628211 + im.Digest
		s = s*1099511628211 + uint64(im.Len)
	}
	return s
}

// commitSum checksums the commit record fields (Sum excluded).
func commitSum(c *commitRecord) uint64 {
	s := uint64(c.Magic)
	s = s*1099511628211 + c.Epoch
	s = s*1099511628211 + uint64(c.Base)
	s = s*1099511628211 + uint64(c.Size)
	return s
}

// regionSize is the arena footprint of a page of n chunk-sized slots.
func regionSize(n, chunk int) int64 {
	return int64(PageHeaderSize + n*chunk + PageCommitSize)
}

// slotOff is the file offset of slot i in the region at base.
func slotOff(base int64, i, chunk int) int64 {
	return base + PageHeaderSize + int64(i*chunk)
}

// commitOff is the file offset of the commit record of the region at base.
func commitOff(base, size int64) int64 {
	return base + size - PageCommitSize
}

// buildRegion appends the header and slot extents of one job's region at
// base to data, and returns its commit-record extent (written separately,
// afterwards). The region's slot records share one array: each lives exactly
// as long as its region does.
func (m *Manager) buildRegion(job flushJob, base int64, epoch uint64, data []pagecache.Extent) ([]pagecache.Extent, pagecache.Extent) {
	hdr := &pageHeader{
		Magic: pageMagic,
		Class: job.class,
		Chunk: job.chunk,
		Epoch: epoch,
		Items: make([]itemMeta, len(job.victims)),
	}
	data = append(data, pagecache.Extent{Off: base, Size: PageHeaderSize, Payload: hdr})
	recs := make([]itemRecord, len(job.victims))
	for i, v := range job.victims {
		hdr.Items[i] = itemMeta{Digest: v.HKey().Hash, Len: v.ValueSize}
		recs[i] = itemRecord{
			Key:       v.Key,
			Value:     v.Value,
			ValueSize: v.ValueSize,
			Flags:     v.Flags,
			CAS:       v.CAS,
		}
		data = append(data, pagecache.Extent{Off: slotOff(base, i, job.chunk), Size: job.chunk, Payload: &recs[i]})
	}
	hdr.Sum = headerSum(hdr)
	cr := &commitRecord{Magic: commitMagic, Epoch: epoch, Base: base, Size: job.size()}
	cr.Sum = commitSum(cr)
	return data, pagecache.Extent{Off: commitOff(base, cr.Size), Size: PageCommitSize, Payload: cr}
}
