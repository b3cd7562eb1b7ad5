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

// Params is the host-side cost model and cache geometry.
type Params struct {
	PageSize       int      // bytes per page
	MaxPages       int      // resident-page limit (cache memory budget)
	DirtyHighPages int      // flusher daemon kicks in above this
	ThrottlePages  int      // writers stall above this
	WritebackBatch int      // pages per flusher device command
	MemcpyBps      int64    // host copy bandwidth
	SyscallCost    sim.Time // read/write syscall entry+exit
	FaultCost      sim.Time // minor page fault (mmap first touch)
	ReadAheadPages int      // extra pages fetched on a cached read miss
}

// DefaultParams models a contemporary Linux host: 4 KB pages, ~8 GB/s
// single-threaded copy bandwidth, ~1.8 µs syscall, ~1.5 µs minor fault, and
// a 128 MB cache budget (the experiments cap server RAM, so the cache is
// deliberately modest).
func DefaultParams() Params {
	return Params{
		PageSize:       4096,
		MaxPages:       32768, // 128 MB
		DirtyHighPages: 8192,  // 32 MB
		ThrottlePages:  16384, // 64 MB
		WritebackBatch: 256,   // 1 MB per flusher command
		MemcpyBps:      8_000_000_000,
		SyscallCost:    1800 * sim.Nanosecond,
		FaultCost:      1500 * sim.Nanosecond,
		// Read-ahead is disabled by default: the key-value load pattern is
		// random, and the kernel's readahead heuristic backs off to zero
		// on random access. Sequential-scan callers can raise it.
		ReadAheadPages: 0,
	}
}

type pageKey struct {
	file int
	idx  int64
}

// page is one resident page. Its recency links are intrusive: resident
// pages form a ring through the cache's lru sentinel, and evicted pages are
// kept on a spare list and reused by the next fault, so steady-state paging
// allocates nothing.
type page struct {
	key        pageKey
	dirty      bool
	prev, next *page // recency ring while resident; next chains the spare list
}

// Cache is one host's page cache in front of one device.
type Cache struct {
	env   *sim.Env
	dev   *blockdev.Device
	par   Params
	pages map[pageKey]*page
	lru   page  // ring sentinel: lru.next = most recent, lru.prev = least recent
	spare *page // evicted pages awaiting reuse
	dirty int
	files int

	wbKick  *sim.Event
	wbYield *sim.Event // fired after each flusher batch; throttled writers wait on it

	// Stats
	Hits, Misses   int64
	Faults         int64
	WritebackPages int64
	ThrottleStalls int64
}

// New creates a page cache over dev and starts its flusher daemon.
func New(env *sim.Env, dev *blockdev.Device, par Params) *Cache {
	if par.PageSize <= 0 {
		panic("pagecache: PageSize must be positive")
	}
	c := &Cache{
		env:     env,
		dev:     dev,
		par:     par,
		pages:   make(map[pageKey]*page),
		wbKick:  env.NewEvent(),
		wbYield: env.NewEvent(),
	}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	env.Spawn("pagecache-flusher", c.flusher)
	return c
}

// unlink takes a resident page out of the recency ring.
func (pg *page) unlink() {
	pg.prev.next, pg.next.prev = pg.next, pg.prev
	pg.prev, pg.next = nil, nil
}

// pushFront makes pg the most recently used page.
func (c *Cache) pushFront(pg *page) {
	pg.prev, pg.next = &c.lru, c.lru.next
	pg.prev.next, pg.next.prev = pg, pg
}

func (c *Cache) moveToFront(pg *page) {
	if c.lru.next != pg {
		pg.unlink()
		c.pushFront(pg)
	}
}

// admit makes page k resident and most recently used, reusing an evicted
// page when one is spare.
func (c *Cache) admit(k pageKey) *page {
	pg := c.spare
	if pg == nil {
		pg = new(page)
	} else {
		c.spare = pg.next
	}
	*pg = page{key: k}
	c.pushFront(pg)
	c.pages[k] = pg
	return pg
}

// evict drops a resident page.
func (c *Cache) evict(pg *page) {
	pg.unlink()
	delete(c.pages, pg.key)
	pg.next = c.spare
	c.spare = pg
}

// Params returns the cache's cost model.
func (c *Cache) Params() Params { return c.par }

// Dirty reports the number of dirty pages.
func (c *Cache) Dirty() int { return c.dirty }

func (c *Cache) memcpyTime(size int) sim.Time {
	if size <= 0 || c.par.MemcpyBps <= 0 {
		return 0
	}
	return sim.Time(float64(size) / float64(c.par.MemcpyBps) * float64(sim.Second))
}

// File is a region of the device accessed through the cache. Offsets are
// file-relative; the file owns [base, base+size) on the device.
type File struct {
	c       *Cache
	id      int
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
	return &File{c: c, id: c.files, base: base, size: size, extents: make(map[int64]extent)}
}

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
		p.Sleep(c.par.SyscallCost)
		c.dev.ServeRaw(p, true, size)
		c.dev.Barrier(p)
		return !c.dev.InjectWriteError()
	case Cached:
		p.Sleep(c.par.SyscallCost)
	case Mmap:
		if faults := f.missPages(off, size); faults > 0 {
			p.Sleep(sim.Time(faults) * c.par.FaultCost)
			c.Faults += int64(faults)
		}
	}
	p.Sleep(c.memcpyTime(size))
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
		p.Sleep(c.par.SyscallCost)
		c.dev.ServeRaw(p, false, size)
		touchedDev = true
	case Cached:
		p.Sleep(c.par.SyscallCost)
		missBytes := f.missPages(off, size) * c.par.PageSize
		if missBytes > 0 {
			c.Misses++
			ra := c.par.ReadAheadPages * c.par.PageSize
			c.dev.ServeRaw(p, false, missBytes+ra)
			touchedDev = true
			f.residentRange(p, off, size, false)
			// Read-ahead pages become resident beyond the request.
			f.residentRange(p, min64(off+int64(size), f.size-1), int(min64(int64(ra), f.size-(off+int64(size)))), false)
		} else {
			c.Hits++
		}
		p.Sleep(c.memcpyTime(size))
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
				_, resident := c.pages[pageKey{f.id, i}]
				missing = !resident
			}
			if missing && runStart < 0 {
				runStart = i
			}
			if !missing && runStart >= 0 {
				run := i - runStart
				p.Sleep(sim.Time(run) * c.par.FaultCost)
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
		p.Sleep(c.memcpyTime(size))
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
	p.Sleep(c.par.SyscallCost)
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
	p.Sleep(f.c.par.SyscallCost)
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
	c.pages = make(map[pageKey]*page)
	c.lru.prev, c.lru.next = &c.lru, &c.lru
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
		if _, ok := f.c.pages[pageKey{f.id, i}]; !ok {
			n++
		}
	}
	return n
}

// residentRange marks pages resident (dirty if dirty=true), evicting as
// needed to stay under MaxPages.
func (f *File) residentRange(p *sim.Proc, off int64, size int, dirty bool) {
	if size <= 0 {
		return
	}
	c := f.c
	first, last := f.pageRange(off, size)
	for i := first; i <= last; i++ {
		k := pageKey{f.id, i}
		pg, ok := c.pages[k]
		if !ok {
			c.evictFor(p, 1)
			pg = c.admit(k)
		} else {
			c.moveToFront(pg)
		}
		if dirty && !pg.dirty {
			pg.dirty = true
			c.dirty++
		}
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
		if pg, ok := c.pages[pageKey{f.id, i}]; ok {
			c.moveToFront(pg)
		}
	}
}

// evictFor makes room for n new pages by dropping clean LRU pages; dirty
// LRU pages are flushed synchronously in the caller's context if no clean
// page is available (direct-reclaim behaviour).
func (c *Cache) evictFor(p *sim.Proc, n int) {
	if c.par.MaxPages <= 0 {
		return
	}
	for len(c.pages)+n > c.par.MaxPages {
		// Scan from the back for a clean victim.
		var victim *page
		for pg := c.lru.prev; pg != &c.lru; pg = pg.prev {
			if !pg.dirty {
				victim = pg
				break
			}
		}
		if victim == nil {
			// Direct reclaim: flush the oldest dirty page synchronously.
			victim = c.lru.prev
			if victim == &c.lru {
				return
			}
			key := victim.key
			c.dev.ServeRaw(p, true, c.par.PageSize)
			c.WritebackPages++
			if c.pages[key] != victim {
				// Another reclaimer evicted it (and the page may already be
				// reused) while this one slept in the device write.
				continue
			}
			if victim.dirty { // unless the flusher cleaned it meanwhile
				victim.dirty = false
				c.dirty--
			}
		}
		c.evict(victim)
	}
}

// throttle stalls the writer while the dirty set exceeds ThrottlePages.
func (c *Cache) throttle(p *sim.Proc) {
	for c.dirty > c.par.ThrottlePages {
		c.ThrottleStalls++
		c.kickFlusher()
		ev := c.wbYield
		p.Wait(ev)
	}
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
			ev := c.wbKick
			p.Wait(ev)
			c.wbKick = c.env.NewEvent()
		}
		// Collect a batch of dirty pages, oldest first.
		batch := 0
		for pg := c.lru.prev; pg != &c.lru && batch < c.par.WritebackBatch; pg = pg.prev {
			if pg.dirty {
				pg.dirty = false
				c.dirty--
				batch++
			}
		}
		if batch == 0 {
			// Nothing flushable despite the kick; rearm and wait.
			ev := c.wbKick
			p.Wait(ev)
			c.wbKick = c.env.NewEvent()
			continue
		}
		c.dev.ServeRaw(p, true, batch*c.par.PageSize)
		c.WritebackPages += int64(batch)
		// Release throttled writers.
		y := c.wbYield
		c.wbYield = c.env.NewEvent()
		y.Fire()
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
