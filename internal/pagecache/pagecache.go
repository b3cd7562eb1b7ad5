// Package pagecache models the OS page cache and the three file I/O schemes
// the paper contrasts for hybrid-slab eviction (Section V-B2, Figure 4):
//
//	Direct I/O : syscall + synchronous device command for the full extent.
//	Cached I/O : syscall + memcpy into resident pages; dirty pages are
//	             written back asynchronously by a flusher daemon, with
//	             dirty-ratio throttling stalling writers under pressure.
//	Mmap I/O   : no syscall; minor fault per non-resident page, then pure
//	             memcpy; the flusher eventually cleans pages.
//
// These first-order costs are why the adaptive slab manager picks mmap for
// small slab classes (syscall cost dominates) and cached I/O for large ones
// (per-page fault cost dominates), with direct I/O always paying full device
// latency synchronously.
//
// Contents are tracked as opaque payload extents per file; the page cache
// tracks residency and dirtiness for timing only.
package pagecache

import (
	"fmt"
	"math/bits"

	"hybridkv/internal/blockdev"
	"hybridkv/internal/sim"
)

// Scheme selects the I/O path for one file operation.
type Scheme int

const (
	Direct Scheme = iota
	Cached
	Mmap
)

func (s Scheme) String() string {
	switch s {
	case Direct:
		return "direct"
	case Cached:
		return "cached"
	case Mmap:
		return "mmap"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// The host-side cost model of a contemporary Linux host; a copy is charged
// at sim.MemcpyBps.
const (
	// SyscallCost is one read/write syscall's entry and exit.
	SyscallCost = 1800 * sim.Nanosecond
	// faultCost is one minor page fault (an mmap page's first touch).
	faultCost = 1500 * sim.Nanosecond
	// writebackBatch is the pages per flusher device command (1 MB).
	writebackBatch = 256
)

// Params is the cache geometry.
type Params struct {
	PageSize       int // bytes per page
	MaxPages       int // resident-page limit (cache memory budget)
	DirtyHighPages int // flusher daemon kicks in above this
	ThrottlePages  int // writers stall above this
}

// DirtyLimit is the most dirty data the cache holds before it stalls
// writers, in bytes: data written longer ago than this much later writing
// has been through writeback.
func (par Params) DirtyLimit() int64 { return int64(par.ThrottlePages) * int64(par.PageSize) }

// DefaultParams models 4 KB pages and a 128 MB cache budget (the experiments
// cap server RAM, so the cache is deliberately modest).
func DefaultParams() Params {
	return Params{
		PageSize:       4096,
		MaxPages:       32768, // 128 MB
		DirtyHighPages: 8192,  // 32 MB
		ThrottlePages:  16384, // 64 MB
	}
}

// page is one resident page, page idx of file. Its links are intrusive: chain
// is the next page of its bucket in the cache's index, a clean page sits on
// the cache's clean ring and a dirty one on its dirty ring, and evicted pages
// are kept on a spare list and reused by the next fault, so steady-state
// paging allocates nothing.
type page struct {
	file  *File
	idx   int64
	chain *page
	dirty bool
	// gen counts the admissions of this page record: a direct reclaimer
	// that slept in its device write evicts its victim only if the record
	// still holds the admission it chose.
	gen        uint32
	prev, next *page // ring links while resident; next chains the spare list
	// stamp is the cache's access clock at the page's last touch: the pages
	// of both rings in stamp order are the cache's one recency order.
	stamp uint64
}

// Cache is one host's page cache in front of one device.
type Cache struct {
	env *sim.Env
	dev *blockdev.Device
	par Params
	// buckets indexes the resident pages: page idx of file f heads or is
	// chained from buckets[f.bucket(idx)], so a run of a file's pages sits
	// in a run of buckets. The array is made at the first admission, a power
	// of two of at least MaxPages buckets, so a cache that never pages has
	// none and the chains average at most one page.
	buckets  []*page
	mask     uint64 // len(buckets) - 1
	resident int    // pages in the index
	// The recency rings, each through its sentinel: ring.next = most recent,
	// ring.prev = least recent. Each is in stamp order, so the clean victim,
	// the direct-reclaim victim and the writeback batch are ring tails.
	clean, dirtied page
	clock          uint64 // the last stamp issued
	spare          *page  // evicted pages awaiting reuse
	dirty          int
	files          int

	wbKick  *sim.Event
	wbYield *sim.Event // fired after each writeback command; throttled writers wait on it
	// Writeback depth (see throttle): the flusher's stream, plus a second
	// one while a writer is throttled.
	parked  int             // writers parked in throttle
	extra   bool            // the extra writeback proc is running
	extraWB func(*sim.Proc) // c.extraWriteback, bound once so a Spawn allocates nothing
	writing int             // writeback commands in flight
	// taken counts every page that has left the dirty set through writeback,
	// direct reclaim or a punch; a throttled writer's ticket is a value of it.
	taken int

	// Stats
	Hits, Misses   int64
	Faults         int64
	WritebackPages int64
	// ThrottleStalls counts throttled writes: writes that left the dirty set
	// above ThrottlePages and parked, once each however often they woke.
	ThrottleStalls int64
	// PunchedPages counts dirty pages a punch dropped unwritten.
	PunchedPages int64
}

// New creates a page cache over dev and starts its flusher daemon.
func New(env *sim.Env, dev *blockdev.Device, par Params) *Cache {
	if par.PageSize <= 0 || par.MaxPages <= 0 {
		panic("pagecache: PageSize and MaxPages must be positive")
	}
	c := &Cache{
		env:     env,
		dev:     dev,
		par:     par,
		wbKick:  env.NewEvent(),
		wbYield: env.NewEvent(),
	}
	c.extraWB = c.extraWriteback
	c.clearRings()
	env.Spawn("pagecache-flusher", c.flusher)
	return c
}

// clearRings empties both recency rings.
func (c *Cache) clearRings() {
	c.clean.prev, c.clean.next = &c.clean, &c.clean
	c.dirtied.prev, c.dirtied.next = &c.dirtied, &c.dirtied
}

// ring returns the sentinel of the ring pg belongs on.
func (c *Cache) ring(pg *page) *page {
	if pg.dirty {
		return &c.dirtied
	}
	return &c.clean
}

// unlink takes a resident page out of its ring.
func (pg *page) unlink() {
	pg.prev.next, pg.next.prev = pg.next, pg.prev
	pg.prev, pg.next = nil, nil
}

// linkAfter puts pg on a ring just after at: toward the tail of the ring
// from at, or at the head when at is the sentinel.
func (pg *page) linkAfter(at *page) {
	pg.prev, pg.next = at, at.next
	pg.prev.next, pg.next.prev = pg, pg
}

// touch makes pg the most recently used page, at the head of the ring of
// its state (moving it there when a write has just dirtied it). The stamp
// moves even when the page is already its ring's head: the other ring's
// head may be more recent.
func (c *Cache) touch(pg *page) {
	c.clock++
	pg.stamp = c.clock
	if r := c.ring(pg); r.next != pg {
		pg.unlink()
		pg.linkAfter(r)
	}
}

// page returns page idx of f if it is resident, or nil.
func (c *Cache) page(f *File, idx int64) *page {
	if c.resident == 0 {
		return nil
	}
	for pg := c.buckets[f.bucket(idx)]; pg != nil; pg = pg.chain {
		if pg.idx == idx && pg.file == f {
			return pg
		}
	}
	return nil
}

// admit makes page idx of f resident, clean, at the clean ring's head,
// reusing an evicted page record when one is spare; the caller touches it.
func (c *Cache) admit(f *File, idx int64) *page {
	if c.buckets == nil {
		n := 1 << bits.Len(uint(c.par.MaxPages-1))
		c.buckets, c.mask = make([]*page, n), uint64(n-1)
	}
	pg := c.spare
	if pg == nil {
		pg = new(page)
	} else {
		c.spare = pg.next
	}
	b := &c.buckets[f.bucket(idx)]
	*pg = page{file: f, idx: idx, chain: *b, gen: pg.gen + 1}
	*b = pg
	c.resident++
	pg.linkAfter(&c.clean)
	return pg
}

// evict drops a resident page.
func (c *Cache) evict(pg *page) {
	at := &c.buckets[pg.file.bucket(pg.idx)]
	for *at != pg {
		if *at == nil {
			panic("pagecache: dropping a page that is not resident")
		}
		at = &(*at).chain
	}
	*at = pg.chain
	c.resident--
	pg.unlink()
	pg.next = c.spare
	c.spare = pg
}

// Params returns the cache geometry.
func (c *Cache) Params() Params { return c.par }

// Dirty reports the number of dirty pages.
func (c *Cache) Dirty() int { return c.dirty }

// File is a region of the device accessed through the cache. Offsets are
// file-relative; the file owns [base, base+size) on the device.
type File struct {
	c       *Cache
	seed    uint64 // its number's Fibonacci multiple: where its run of buckets starts
	base    int64
	size    int64
	extents map[int64]extent
	// boots counts cold restarts (RecoverExtents). A durable write still in
	// flight when the host lost power never reached the media: its process
	// may resume in the next incarnation, but it places nothing.
	boots int
}

type extent struct {
	size    int
	payload any
}

// OpenFile carves a file over [base, base+size) of the device.
func (c *Cache) OpenFile(base, size int64) *File {
	c.files++
	return &File{c: c, seed: uint64(c.files) * 0x9E3779B97F4A7C15, base: base, size: size, extents: make(map[int64]extent)}
}

// bucket returns the index of page idx's bucket in the cache's index.
func (f *File) bucket(idx int64) uint64 { return (f.seed + uint64(idx)) & f.c.mask }

// Cache returns the page cache the file is accessed through.
func (f *File) Cache() *Cache { return f.c }

// Size returns the file length in bytes.
func (f *File) Size() int64 { return f.size }

func (f *File) pageRange(off int64, size int) (first, last int64) {
	ps := int64(f.c.par.PageSize)
	return off / ps, (off + int64(size) - 1) / ps
}

func (f *File) check(off int64, size int) {
	if off < 0 || size <= 0 || off+int64(size) > f.size {
		panic(fmt.Sprintf("pagecache: access [%d,%d) outside file size %d", off, off+int64(size), f.size))
	}
}

// Write stores payload at off using the given scheme, charging the process
// the scheme's cost.
func (f *File) Write(p *sim.Proc, off int64, size int, payload any, scheme Scheme) {
	f.check(off, size)
	if f.chargeWrite(p, off, size, scheme) {
		f.extents[off] = extent{size: size, payload: payload}
	}
}

// chargeWrite charges p one size-byte write at off under scheme, and reports
// whether the device accepted it. Only direct I/O can be refused — there the
// failure is synchronous — and a refused write places nothing: the extent
// keeps its old contents (or stays absent), which a later Read surfaces as
// ok=false.
func (f *File) chargeWrite(p *sim.Proc, off int64, size int, scheme Scheme) bool {
	c := f.c
	switch scheme {
	case Direct:
		// Synchronous direct I/O: full device write plus the flush
		// barrier, all on the caller's critical path.
		p.Sleep(SyscallCost)
		c.dev.ServeRaw(p, true, size)
		c.dev.Barrier(p)
		return !c.dev.InjectWriteError()
	case Cached:
		p.Sleep(SyscallCost)
	case Mmap:
		if faults := f.missPages(off, size); faults > 0 {
			p.Sleep(sim.Time(faults) * faultCost)
			c.Faults += int64(faults)
		}
	}
	p.Sleep(sim.TransferTime(size, sim.MemcpyBps))
	f.dirtyRange(p, off, size)
	c.throttle(p)
	return true
}

// Read fetches the payload stored at off using the given scheme. ok reports
// whether an extent was ever written there (timing is charged regardless).
func (f *File) Read(p *sim.Proc, off int64, size int, scheme Scheme) (payload any, ok bool) {
	f.check(off, size)
	c := f.c
	touchedDev := false
	switch scheme {
	case Direct:
		p.Sleep(SyscallCost)
		c.dev.ServeRaw(p, false, size)
		touchedDev = true
	case Cached:
		p.Sleep(SyscallCost)
		missBytes := f.missPages(off, size) * c.par.PageSize
		if missBytes > 0 {
			c.Misses++
			// No read-ahead: a key-value load is random access, on which
			// the kernel's readahead heuristic backs off to zero.
			c.dev.ServeRaw(p, false, missBytes)
			touchedDev = true
			f.residentRange(p, off, size, false)
		} else {
			c.Hits++
		}
		p.Sleep(sim.TransferTime(size, sim.MemcpyBps))
		f.touchRange(off, size)
	case Mmap:
		first, last := f.pageRange(off, size)
		ps := int64(c.par.PageSize)
		// Fault in non-resident runs with one device command per run
		// (page-granular random reads: this is what makes mmap reads of
		// cold large extents expensive).
		runStart := int64(-1)
		var faulted int64
		for i := first; i <= last+1; i++ {
			missing := false
			if i <= last {
				missing = c.page(f, i) == nil
			}
			if missing && runStart < 0 {
				runStart = i
			}
			if !missing && runStart >= 0 {
				run := i - runStart
				p.Sleep(sim.Time(run) * faultCost)
				c.dev.ServeRaw(p, false, int(run*ps))
				faulted += run
				runStart = -1
			}
		}
		if faulted > 0 {
			c.Faults += faulted
			c.Misses++
			touchedDev = true
			f.residentRange(p, off, size, false)
		} else {
			c.Hits++
		}
		p.Sleep(sim.TransferTime(size, sim.MemcpyBps))
		f.touchRange(off, size)
	}
	if touchedDev && c.dev.InjectReadError() {
		// Uncorrectable media read on the device command that backed this
		// request: surface it as missing contents.
		return nil, false
	}
	e, ok := f.extents[off]
	if !ok {
		return nil, false
	}
	// Bit-rot bites only reads that actually touched the media — a cache
	// hit re-serves the DRAM copy — and only after the full normal service
	// time is charged, so a rotted read is virtual-time-identical to a
	// clean one.
	if touchedDev && c.dev.RotRead(f.base+off, p.Now()) {
		return blockdev.Rotted{Payload: e.payload}, true
	}
	return e.payload, true
}

// Peek returns the logical contents at off without any time charge (for
// integrity re-checks against data a read already paid for, and for
// assertions).
func (f *File) Peek(off int64) (payload any, ok bool) {
	e, ok := f.extents[off]
	return e.payload, ok
}

// Extent names one sub-extent of a larger write: the unit at which contents
// are later read back (a slab item slot, a page header, a commit record).
type Extent struct {
	Off     int64 // file-relative
	Size    int
	Payload any
}

// WriteExtents writes [off, off+size) as one device command under the given
// scheme — charged exactly like Write (chargeWrite) — and places each
// sub-extent both in the file's logical view and in the device's durable
// view. It returns false when the device refuses the write: nothing is
// placed, logical or durable, so a failed flush cannot leave items
// half-placed.
//
// The durable placement draws one torn-write decision for the command: only
// sub-extents wholly inside the persisted sector prefix survive a crash
// intact; the one straddling the tear point persists torn, and later ones
// keep whatever the media held before (typically stale data from a prior
// region incarnation, which recovery rejects by epoch/commit mismatch).
// Cached and mmap writes persist here too — a deliberate simplification that
// models writeback as completing in write order.
func (f *File) WriteExtents(p *sim.Proc, off int64, size int, exts []Extent, scheme Scheme) bool {
	f.check(off, size)
	c, boot := f.c, f.boots
	if !f.chargeWrite(p, off, size, scheme) {
		return false
	}
	persisted, _ := c.dev.InjectTorn(size)
	if f.boots != boot {
		return false
	}
	tearAt := off + int64(persisted)
	for _, e := range exts {
		f.extents[e.Off] = extent{size: e.Size, payload: e.Payload}
		end := e.Off + int64(e.Size)
		switch {
		case end <= tearAt:
			c.dev.Persist(f.base+e.Off, e.Size, e.Size, e.Payload)
		case e.Off < tearAt:
			c.dev.Persist(f.base+e.Off, e.Size, int(tearAt-e.Off), e.Payload)
		}
	}
	return true
}

// WriteCommit journals the given extents as one small ordered write (no
// cache barrier: commit records are sector-sized and the device program of
// the preceding data write already completed, so ordering holds). Returns
// false when the device injects a write error; a torn commit write persists
// only a prefix of the records, in slice order.
func (f *File) WriteCommit(p *sim.Proc, exts []Extent) bool {
	total := 0
	for _, e := range exts {
		f.check(e.Off, e.Size)
		total += e.Size
	}
	c, boot := f.c, f.boots
	p.Sleep(SyscallCost)
	c.dev.ServeRaw(p, true, total)
	if c.dev.InjectWriteError() {
		return false
	}
	persisted, _ := c.dev.InjectTorn(total)
	if f.boots != boot {
		return false
	}
	written := 0
	for _, e := range exts {
		f.extents[e.Off] = extent{size: e.Size, payload: e.Payload}
		switch {
		case written+e.Size <= persisted:
			c.dev.Persist(f.base+e.Off, e.Size, e.Size, e.Payload)
		case written < persisted:
			c.dev.Persist(f.base+e.Off, e.Size, persisted-written, e.Payload)
		}
		written += e.Size
	}
	return true
}

// ReadRaw charges a synchronous direct read of [off, off+size) without
// touching the extent maps — the recovery scan's I/O cost.
func (f *File) ReadRaw(p *sim.Proc, off int64, size int) {
	f.check(off, size)
	p.Sleep(SyscallCost)
	f.c.dev.ServeRaw(p, false, size)
}

// DurableOffsets lists the file-relative offsets of every durable extent in
// the file, sorted — the recovery scan order.
func (f *File) DurableOffsets() []int64 {
	offs := f.c.dev.DurableOffsets(f.base, f.base+f.size)
	for i := range offs {
		offs[i] -= f.base
	}
	return offs
}

// PeekDurable returns the durable extent at the file-relative offset.
func (f *File) PeekDurable(off int64) (blockdev.DurExtent, bool) {
	return f.c.dev.PeekDurable(f.base + off)
}

// DurableEnd returns the file-relative end of the highest durable extent —
// where a rebuilt bump allocator resumes.
func (f *File) DurableEnd() int64 {
	return f.c.dev.DurableEnd(f.base, f.base+f.size) - f.base
}

// RecoverExtents models a cold host restart for this file: the page cache
// is dropped and the logical extent map is rebuilt from the device's
// durable view. Torn extents are left out of the logical view — recovery
// code inspects them through PeekDurable.
func (f *File) RecoverExtents() {
	f.boots++
	f.c.Reset()
	f.extents = make(map[int64]extent)
	for _, off := range f.DurableOffsets() {
		if e, ok := f.PeekDurable(off); ok && !e.Torn() {
			f.extents[off] = extent{size: e.Size, payload: e.Payload}
		}
	}
}

// Reset drops every resident page (clean and dirty) — the page cache of a
// power-cycled host.
func (c *Cache) Reset() {
	clear(c.buckets)
	c.resident = 0
	c.clearRings()
	c.spare = nil
	c.dirty = 0
}

// Discard drops the extent bookkeeping at off (slab reuse), both in the
// logical view and in the durable view — an invalidated slot must not be
// resurrected by a later recovery scan.
func (f *File) Discard(off int64) {
	delete(f.extents, off)
	f.c.dev.DiscardDurable(f.base + off)
}

// Punch discards the extent at off as Discard does and drops every resident
// page that lies wholly inside it — fallocate(PUNCH_HOLE|KEEP_SIZE) over a
// dead slab slot. A dirty page leaves the dirty set unwritten and counts
// toward taken, so a parked writer's ticket sees it at the next writeback
// completion (a punch wakes nobody); a clean page is freed for reuse. The
// pages at either end that the extent shares with a neighbour stay as they
// are. The caller pays the syscall (SyscallCost).
func (f *File) Punch(off int64) {
	e, ok := f.extents[off]
	f.Discard(off)
	if !ok {
		return
	}
	c := f.c
	ps := int64(c.par.PageSize)
	for i, end := (off+ps-1)/ps, (off+int64(e.size))/ps; i < end; i++ {
		pg := c.page(f, i)
		if pg == nil {
			continue
		}
		if pg.dirty {
			c.dirty--
			c.taken++
			c.PunchedPages++
		}
		c.evict(pg)
	}
}

// SetExtent records contents at off without any time charge and without
// touching the durable view: a misdirected write, as a test plants one (the
// slab's region writer places its own extents through WriteExtents).
func (f *File) SetExtent(off int64, size int, payload any) {
	f.check(off, size)
	f.extents[off] = extent{size: size, payload: payload}
}

// missPages counts the non-resident pages in the range.
func (f *File) missPages(off int64, size int) int {
	first, last := f.pageRange(off, size)
	n := 0
	for i := first; i <= last; i++ {
		if f.c.page(f, i) == nil {
			n++
		}
	}
	return n
}

// residentRange marks pages resident (dirty if dirty=true), evicting as
// needed to stay under MaxPages.
func (f *File) residentRange(p *sim.Proc, off int64, size int, dirty bool) {
	c := f.c
	first, last := f.pageRange(off, size)
	for i := first; i <= last; i++ {
		pg := c.page(f, i)
		if pg == nil {
			// A direct reclaim sleeps in its device write, and another
			// proc may have faulted the page in meanwhile.
			if c.evictFor(p, 1) {
				pg = c.page(f, i)
			}
			if pg == nil {
				pg = c.admit(f, i)
			}
		}
		if dirty && !pg.dirty {
			pg.dirty = true
			c.dirty++
		}
		c.touch(pg)
	}
}

func (f *File) dirtyRange(p *sim.Proc, off int64, size int) {
	f.residentRange(p, off, size, true)
	c := f.c
	if c.dirty > c.par.DirtyHighPages {
		c.kickFlusher()
	}
}

func (f *File) touchRange(off int64, size int) {
	c := f.c
	first, last := f.pageRange(off, size)
	for i := first; i <= last; i++ {
		if pg := c.page(f, i); pg != nil {
			c.touch(pg)
		}
	}
}

// evictFor makes room for n new pages by dropping the least recent clean
// pages; when no page is clean, the least recent dirty page is written in
// the caller's context and then dropped (direct reclaim). It reports whether
// it slept in a direct reclaim's write.
func (c *Cache) evictFor(p *sim.Proc, n int) (slept bool) {
	for c.resident+n > c.par.MaxPages {
		victim := c.clean.prev
		if victim == &c.clean {
			victim = c.dirtied.prev
			if victim == &c.dirtied {
				return slept
			}
			gen := victim.gen
			c.dev.ServeRaw(p, true, c.par.PageSize)
			slept = true
			c.WritebackPages++
			if victim.gen != gen || c.page(victim.file, victim.idx) != victim {
				// While this reclaimer slept in the device write, the page
				// left the cache: another reclaimer evicted it, or the
				// flusher cleaned it and an eviction dropped it. Its record
				// may since hold a new admission, even of the same page.
				continue
			}
			if victim.dirty { // unless the flusher cleaned it meanwhile
				victim.dirty = false
				c.dirty--
				c.taken++
			}
		}
		c.evict(victim)
	}
	return slept
}

// throttle stalls a writer that left the dirty set above ThrottlePages for
// its own overshoot, as Linux's IO-less balance_dirty_pages pauses a task for
// the pages it dirtied. The writer parks with a ticket: the pages taken from
// the dirty set so far plus its excess, dirty − ThrottlePages. It leaves at
// the first writeback completion by which that many pages have been taken, or
// that finds the dirty set back at the limit, so pages dirtied by writers
// that park after it never lengthen its stall. A later writer's ticket is
// never smaller (it adds what was dirtied meanwhile), so writers leave in the
// order they parked.
//
// Background writeback keeps one command in flight (the flusher's), so it
// never competes with reads for more than one of the drive's channels. A
// writer parked here is balance_dirty_pages' case, where Linux's writeback
// throttling lets writeback go deeper: a second writeback stream, the extra
// proc, runs beside the flusher while any writer is parked. One stream's
// command pays its base while the other's moves its bytes, so the drive's
// write bandwidth never idles between commands. A third stream would add
// nothing: two already keep all of it busy (blockdev's writeShare).
func (c *Cache) throttle(p *sim.Proc) {
	excess := c.dirty - c.par.ThrottlePages
	if excess <= 0 {
		return
	}
	c.ThrottleStalls++
	for ticket := c.taken + excess; c.dirty > c.par.ThrottlePages && c.taken < ticket; {
		c.kickFlusher()
		if !c.extra {
			c.extra = true
			c.env.Spawn("pagecache-writeback", c.extraWB)
		}
		c.parked++
		p.Wait(c.wbYield)
		c.parked--
	}
}

// extraWriteback is the second writeback stream. Like the flusher, it takes
// its next batch the instant its command completes, before the writers it
// released look at the dirty set, and it stops at a completion that finds
// no writer parked.
func (c *Cache) extraWriteback(p *sim.Proc) {
	for c.parked > 0 && c.writeback(p) {
	}
	c.extra = false
}

func (c *Cache) kickFlusher() {
	if !c.wbKick.Fired() {
		c.wbKick.Fire()
	}
}

// Kick wakes the writeback daemon regardless of watermarks (sync(1)-style:
// used to drain dirty state before a measurement phase).
func (c *Cache) Kick() { c.kickFlusher() }

// flusher is the background writeback daemon.
func (c *Cache) flusher(p *sim.Proc) {
	for {
		if c.dirty <= c.par.DirtyHighPages/2 {
			c.awaitKick(p)
		}
		if !c.writeback(p) {
			// Nothing flushable despite the kick; rearm and wait.
			c.awaitKick(p)
		}
	}
}

// awaitKick parks the flusher until the next kick.
func (c *Cache) awaitKick(p *sim.Proc) {
	p.Wait(c.wbKick)
	c.wbKick = c.env.NewEvent()
}

// writeback takes up to writebackBatch of the oldest dirty pages, marks them
// clean, writes them back in one device command and releases the throttled
// writers. It reports false, issuing nothing, when no page is dirty.
//
// The batch leaves the dirty ring's tail oldest first, so one cursor moving
// toward the clean ring's head places each page among the clean pages by
// its stamp.
func (c *Cache) writeback(p *sim.Proc) bool {
	batch := 0
	// at is the newest clean page older than the batch's next page, or the
	// sentinel when none is. The batch's first page finds it walking in from
	// whichever end of the clean ring its stamp lies nearer.
	at := &c.clean
	if first, head, tail := c.dirtied.prev, c.clean.next, c.clean.prev; first.stamp+first.stamp > head.stamp+tail.stamp {
		for at = head; at != &c.clean && at.stamp > first.stamp; at = at.next {
		}
	}
	for pg := c.dirtied.prev; pg != &c.dirtied && batch < writebackBatch; pg = c.dirtied.prev {
		pg.unlink()
		pg.dirty = false
		c.dirty--
		batch++
		for at.prev != &c.clean && at.prev.stamp < pg.stamp {
			at = at.prev
		}
		pg.linkAfter(at.prev)
		at = pg
	}
	if batch == 0 {
		return false
	}
	c.taken += batch
	c.writing++
	c.dev.ServeRaw(p, true, batch*c.par.PageSize)
	c.writing--
	c.WritebackPages += int64(batch)
	y := c.wbYield
	c.wbYield = c.env.NewEvent()
	y.Fire()
	return true
}
