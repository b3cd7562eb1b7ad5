// Package hybridslab implements the 'RAM+SSD' hybrid slab manager of
// SSD-assisted Memcached (Ouyang et al. [17]) together with this paper's
// adaptive I/O enhancement (Section V-B2, Figure 5).
//
// Items live in RAM slab chunks until the slab allocator hits its memory
// limit. On an allocation failure, one slab page worth of LRU items from the
// requested class is buffered and synchronously flushed to the SSD, then the
// allocation is retried — exactly the eviction granularity the paper
// describes. The flush I/O scheme is selected by policy:
//
//	PolicyDirect   : direct I/O for every class (H-RDMA-Def behaviour)
//	PolicyAdaptive : mmap-ed slabs for small classes, cached I/O for large
//	                 classes (H-RDMA-Opt behaviour)
//
// Every slab page that reaches the SSD — an eviction's, a coalescing window's
// merged run, the write-behind flusher's, a relocation's — is placed by one
// function (place) and written by one (writeRun); arena compaction and the
// evacuation of quarantined media are one relocation (compact.go), reading
// slots back through the same verified read as a Get (readSlot).
//
// A RAM-only manager (no SSD attached) evicts LRU items outright, modeling
// default Memcached; subsequent Gets of those keys miss and the client pays
// the backend penalty.
package hybridslab

import (
	"errors"
	"strconv"

	"hybridkv/internal/pagecache"
	"hybridkv/internal/pool"
	"hybridkv/internal/sim"
	"hybridkv/internal/slab"
)

// IOPolicy selects the SSD flush/load scheme per slab class.
type IOPolicy int

const (
	PolicyDirect IOPolicy = iota
	PolicyAdaptive
)

// Per-operation slab metadata cost (freelist/page bookkeeping).
const slabMetaCost = 200 * sim.Nanosecond

// Item is one key-value pair and its placement.
//
// An item a manager hands out (NewItem) comes off that manager's free list
// and counts its holds (DESIGN §16): everyone who may touch it — the store's
// table, the manager while it is resident, an eviction in flight, a caller
// suspended in Load — holds it, and the last Unhold puts it back, zeroed, for
// the next NewItem. An item built by hand counts no holds, and one a cold
// restart left behind is never reused: the GC takes both.
type Item struct {
	Key       string
	Value     any
	ValueSize int
	Flags     uint32
	pool.Holds
	CAS uint64

	class   int
	onSSD   bool
	dropped bool
	// inTransit marks a victim of an eviction in flight: it is on no
	// recency list while the evicting worker may be suspended in flush I/O,
	// so concurrent Touch/Release must not relink it.
	inTransit bool
	// gen is the manager incarnation that owns the item. A cold-restart
	// recovery bumps the manager's generation; items from the previous
	// incarnation (still referenced by workers that were suspended in I/O
	// across the crash) become inert — Touch/Release/Load ignore them, and
	// Unhold never puts them back.
	gen     uint32
	ssdOff  int64
	ssdPage *ssdPage
	lru     slab.LRUEntry[*Item]
	// owner is the manager whose free list the item goes back to; nil for an
	// item built by hand.
	owner *Manager
}

// NewItem hands out a zero item holding one hold, its caller's. It panics if
// the item was touched after its last Unhold.
func (m *Manager) NewItem() *Item {
	it := m.Items.Get()
	if *it != (Item{Holds: it.Holds}) {
		panic("hybridslab: a free item was touched after its last Unhold")
	}
	it.gen, it.owner = m.gen, m
	return it
}

// Retired reports how many of the items the manager made a cold restart
// left behind: held at the restart, an older incarnation's since, and never
// put back (Unhold).
func (m *Manager) Retired() int { return m.retired }

// Retired reports whether it is one of those: an older incarnation's item,
// whose holds nobody counts any more.
func (it *Item) Retired() bool { return it.owner != nil && it.gen != it.owner.gen }

// String names the item by its key.
func (it *Item) String() string { return "item " + strconv.Quote(it.Key) }

// Hold adds a hold on it: one more holder may touch it until its own Unhold.
// Holding an item nobody holds panics: it is free already.
func (it *Item) Hold() { pool.Hold(it) }

// Unhold drops one hold on it; the last one puts it back on its manager's
// free list, zeroed, unless a cold restart left it behind. Unholding below
// zero panics.
func (it *Item) Unhold() {
	if m := it.owner; (m == nil || it.gen == m.gen) && pool.Drop(it) {
		m.Items.Put(it)
	}
}

// mustBeHeld panics on a free item: whoever passed it in let go of it, and
// it may be another key's by now.
func (it *Item) mustBeHeld(op string) {
	if pool.Holders(it) < 0 {
		panic("hybridslab: " + op + " of an item nobody holds")
	}
}

// ssdPage is one flushed slab page on the SSD arena. Like fatcache, the
// arena is reclaimed at page granularity: when every slot in a page has been
// freed, the whole region returns to the free pool.
type ssdPage struct {
	base int64
	size int64
	live int
	// landed is the manager's written count once the region's write landed:
	// how recently its pages entered the page cache (freeSlot).
	landed int64
	// relocating marks a region whose live items are being moved out:
	// freeSSD must not return it to the pool (the relocation retires it,
	// exactly once).
	relocating bool
	// quarantined marks a region that served corrupt bits: the allocator
	// must never reuse it until a scrub pass reclaims it (ReclaimQuarantined).
	quarantined bool
}

// Dropped reports whether the value was discarded by eviction; a Get of a
// dropped item is a cache miss.
func (it *Item) Dropped() bool { return it.dropped }

// OnSSD reports whether the item's value currently lives on the SSD.
func (it *Item) OnSSD() bool { return it.onSSD }

// InPlace reports whether the item's fields are its authoritative copy, so
// that writing them updates the value: it is RAM-resident and not staged for
// eviction. A staged item's flush may already have captured the fields it
// will land on the SSD with, and from then on only a rewrite through the
// store path — which releases the item and lets the flush discard its slot —
// reaches what later reads see.
func (it *Item) InPlace() bool { return !it.onSSD && !it.inTransit }

// asyncFlushDepth bounds the staged flushes write-behind eviction
// (Config.AsyncFlush) holds in flight.
const asyncFlushDepth = 4

// ErrTooLarge is returned for items exceeding the largest slab chunk.
var ErrTooLarge = errors.New("hybridslab: item exceeds maximum chunk size")

// Config assembles a Manager.
type Config struct {
	Slab slab.Config
	// Policy picks the SSD I/O scheme; ignored for RAM-only managers.
	Policy IOPolicy
	// AdaptiveCutoff is the largest chunk size flushed via mmap under
	// PolicyAdaptive (default 16 KB).
	AdaptiveCutoff int
	// SSDCapacity bounds hybrid-memory overflow (bytes). 0 with a non-nil
	// cache means "device capacity".
	SSDCapacity int64
	// AsyncFlush enables write-behind eviction (the paper's future work,
	// Section VII): the allocating request only buffers the victims into
	// a bounded staging pool and frees their RAM chunks; a background
	// flusher performs the SSD write and placement. Staging is bounded to
	// asyncFlushDepth in-flight slabs, which is the backpressure under
	// sustained write bursts.
	AsyncFlush bool
	// NoVerify disables the foreground read-integrity checks (page-header
	// checksum, per-slot key digest, rot detection). The zero value —
	// verification on — is the production configuration; NoVerify exists
	// for the bitrot experiment's nodefense cells, which measure what
	// surfaces when corrupt media is served unchecked.
	NoVerify bool
}

// NotifyEvent classifies an item lifecycle transition driven by the
// eviction machinery (as opposed to store commands, which the store layer
// observes directly). The server-bypass directory subscribes to keep its
// published index coherent with item placement.
type NotifyEvent int

const (
	// EvictStaged: the item left the RAM recency list for an in-flight
	// flush; its RAM copy is about to move.
	EvictStaged NotifyEvent = iota
	// EvictDropped: the value was discarded entirely; the key is dead.
	EvictDropped
	// EvictLanded: the item's authoritative copy now lives on the SSD.
	EvictLanded
	// EvictRestored: a failed flush returned the item to the RAM list.
	EvictRestored
)

// Manager owns one server's item memory.
type Manager struct {
	env    *sim.Env
	cfg    Config
	alloc  *slab.Allocator
	lrus   []slab.LRU[*Item] // one per class, RAM residents only
	ssdLRU slab.LRU[*Item]   // SSD residents, for SSD-full eviction

	notify func(*Item, NotifyEvent)

	file     *pagecache.File // nil for RAM-only
	flushing int             // evictions in flight (concurrent workers)
	flushEv  *sim.Event      // fired when a flush completes
	flushQ   *sim.Queue[flushJob]
	ssdUsed  int64
	ssdLimit int64
	ssdNext  int64             // bump pointer for fresh flush pages
	written  int64             // bytes of region data writes landed, ever
	punches  int               // page-cache punches the next Store pays for
	ssdFree  map[int64][]int64 // fully-reclaimed flush regions by size
	windows  map[*sim.Proc]*evictionWindow
	// quarantine holds regions that served corrupt bits, in quarantine
	// order. They are withheld from the free pool until ReclaimQuarantined
	// (the scrub pass) releases the fully-dead ones.
	quarantine []*ssdPage

	// gen counts cold-restart recoveries: workers suspended in I/O across a
	// crash observe a changed generation on resume and abandon their work
	// instead of mutating the rebuilt state.
	gen uint32

	// Items is the item free list (NewItem, Item.Unhold); retired counts the
	// items it made that a cold restart left held, never to come back.
	Items   pool.List[Item, *Item]
	retired int

	// epoch stamps flushed pages; the commit record must match it. It only
	// grows, surviving recovery (restored to max-seen+1), so a newer copy of
	// a key always carries a higher epoch.
	epoch uint64
	// recovering gates item operations while Recover rebuilds the state.
	recovering bool
	// flushFailStreak counts consecutive failed eviction flushes; past a
	// small budget eviction sheds victims instead of retrying a failing
	// device forever.
	flushFailStreak int

	// Stats
	Gets, Hits             int64
	FlushPages             int64 // slab pages flushed to SSD
	FlushWrites            int64 // region data writes that landed (evictions and relocations)
	CommitWrites           int64 // commit-record writes that landed, one per run
	FlushErrors            int64 // region writes refused by device errors
	SSDLoads               int64
	CorruptLoads           int64 // uncorrectable SSD reads (data loss)
	QuarantinedPages       int64 // regions quarantined after serving corrupt bits
	QuarantineReclaims     int64 // quarantined regions released back by scrub
	QuarantineEvacuated    int64 // live slots re-verified and moved off quarantined regions
	Compactions            int64 // arena regions rewritten densely
	DropEvictions          int64 // items discarded entirely
	AbortedWindows         int64 // eviction windows torn down by Crash
	FlushTime, SSDLoadTime sim.Time
	AllocStalls            int64
}

// New builds a hybrid manager. file may be nil for a RAM-only store; then
// eviction drops items (default Memcached behaviour).
func New(env *sim.Env, cfg Config, file *pagecache.File) *Manager {
	if cfg.AdaptiveCutoff <= 0 {
		cfg.AdaptiveCutoff = 16 * 1024
	}
	m := &Manager{
		env:     env,
		cfg:     cfg,
		alloc:   slab.New(cfg.Slab),
		file:    file,
		flushEv: env.NewEvent(),
		ssdFree: make(map[int64][]int64),
		windows: make(map[*sim.Proc]*evictionWindow),
	}
	m.lrus = make([]slab.LRU[*Item], m.alloc.NumClasses())
	if file != nil {
		m.ssdLimit = cfg.SSDCapacity
		if m.ssdLimit <= 0 {
			m.ssdLimit = file.Size()
		}
		if cfg.AsyncFlush {
			m.flushQ = sim.NewQueue[flushJob](env, asyncFlushDepth)
			env.Spawn("hybridslab-flusher", m.asyncFlusher)
		}
	}
	return m
}

// flushJob is one slab eviction awaiting its SSD write. gen pins the manager
// incarnation that staged it: jobs staged before a cold restart are
// abandoned, not placed into the rebuilt arena. An eviction holds each of its
// victims from staging until whoever settles the job — placeAt, unflush,
// dropJob, abandonJob — is done with it: a victim the store releases and
// replaces meanwhile is still the job's to read and to account for.
type flushJob struct {
	victims []*Item
	class   int
	chunk   int
	gen     uint32
	// inRAM: the victims still occupy their RAM chunks, and whoever settles
	// the job frees them (the synchronous path). A staged job — write-behind
	// or a coalescing window — freed them at buffering time, so undoing its
	// refused write has to allocate them again.
	inRAM bool
}

// size is the arena footprint of the job's region.
func (j flushJob) size() int64 { return regionSize(len(j.victims), j.chunk) }

// SetNotify installs the eviction lifecycle observer. One observer; the
// store layer fans out if it ever needs more.
func (m *Manager) SetNotify(fn func(*Item, NotifyEvent)) { m.notify = fn }

// event reports one item transition to the observer, if any.
func (m *Manager) event(it *Item, ev NotifyEvent) {
	if m.notify != nil {
		m.notify(it, ev)
	}
}

// Allocator exposes the underlying slab allocator (read-only use).
func (m *Manager) Allocator() *slab.Allocator { return m.alloc }

// SSDUsed returns bytes of SSD space holding live items.
func (m *Manager) SSDUsed() int64 { return m.ssdUsed }

// flushScheme returns the I/O scheme used to evict chunks of class idx.
func (m *Manager) flushScheme(class int) pagecache.Scheme {
	switch {
	case m.cfg.Policy != PolicyAdaptive:
		return pagecache.Direct
	case m.alloc.ChunkSize(class) <= m.cfg.AdaptiveCutoff:
		return pagecache.Mmap
	}
	return pagecache.Cached
}

// loadScheme returns the I/O scheme used to read an evicted item back:
// O_DIRECT chunk reads for the default design, buffered (page-cache) reads
// for the optimized designs — a large share of H-RDMA-Opt's read-side gain
// over H-RDMA-Def (Fig. 8a, claims row 15) is exactly direct-vs-buffered reads.
func (m *Manager) loadScheme(class int) pagecache.Scheme {
	if m.cfg.Policy == PolicyDirect {
		return pagecache.Direct
	}
	return pagecache.Cached
}

// Store inserts or replaces the item for key, charging p the slab
// management and any eviction I/O time. This is the "Slab Allocation"
// stage of a Set. A stored item is resident, and the manager holds it until
// its residency ends (Release, or eviction dropping or retiring it). It
// returns ErrRecovering while a recovery scan runs, or once a cold restart
// came while it was suspended.
func (m *Manager) Store(p *sim.Proc, it *Item) error {
	it.mustBeHeld("Store")
	if m.recovering {
		return ErrRecovering
	}
	class, ok := m.alloc.ClassFor(it.ValueSize + len(it.Key) + itemOverhead)
	if !ok {
		return ErrTooLarge
	}
	it.class = class
	it.gen = m.gen
	if n := m.punches; n > 0 {
		m.punches = 0
		p.Sleep(sim.Time(n) * pagecache.SyscallCost)
	}
	p.Sleep(slabMetaCost)
	for {
		if it.gen != m.gen {
			// A cold restart came while the store was suspended: the item
			// is an older incarnation's, and the rebuilt slab gives it no
			// chunk.
			return ErrRecovering
		}
		switch m.alloc.Alloc(class) {
		case slab.AllocOK, slab.AllocNewPage:
			// Copy the value into the chunk.
			p.Sleep(sim.TransferTime(it.ValueSize, sim.MemcpyBps))
			if it.gen != m.gen {
				return ErrRecovering // the restart came during the copy
			}
			m.lrus[class].PushFront(&it.lru)
			it.lru.Value = it
			it.onSSD = false
			it.Hold()
			return nil
		case slab.AllocNeedEvict:
			m.AllocStalls++
			m.evictOnePage(p, class)
		}
	}
}

const itemOverhead = 56 // key pointer, CAS, flags, LRU links

// evictOnePage frees roughly one slab page of RAM by moving LRU items of
// the given class (falling back to the globally fullest class) to the SSD,
// or dropping them when RAM-only.
func (m *Manager) evictOnePage(p *sim.Proc, class int) {
	victimClass := class
	if m.lrus[class].Len() == 0 {
		// The class being allocated has no victims yet (fresh class while
		// memory is full of other classes): steal from the fullest class.
		best, bestBytes := -1, 0
		for i := range m.lrus {
			b := m.lrus[i].Len() * m.alloc.ChunkSize(i)
			if b > bestBytes {
				best, bestBytes = i, b
			}
		}
		if best < 0 {
			// No victims anywhere: either memory is tied up in freed
			// chunks of other classes (reassign an empty page), or every
			// candidate is in another worker's in-flight flush (wait for
			// it and let the caller's allocation loop retry).
			if m.alloc.ReclaimEmptyPage() {
				return
			}
			if w := m.windows[p]; w != nil && len(w.jobs) > 0 {
				// Our own deferred evictions are among the in-flight
				// flushes; waiting on flushEv could be waiting on
				// ourselves. Land them now and let the caller retry.
				jobs := w.jobs
				w.jobs = nil
				m.place(p, jobs)
				return
			}
			if m.flushing > 0 {
				p.Wait(m.flushEv)
				return
			}
			panic("hybridslab: memory limit too small to hold one page")
		}
		victimClass = best
	}
	chunk := m.alloc.ChunkSize(victimClass)
	want := max(1, m.alloc.Config().PageSize/chunk)
	victims := make([]*Item, 0, want)
	for len(victims) < want {
		e := m.lrus[victimClass].PopBack()
		if e == nil {
			break
		}
		victims = append(victims, e.Value)
	}
	if len(victims) == 0 {
		panic("hybridslab: no victims in chosen class")
	}
	if m.file == nil {
		// Default Memcached: drop. No suspension points here, so victims
		// cannot be raced.
		for _, v := range victims {
			m.alloc.Free(victimClass)
			m.shed(v)
		}
		return
	}
	// Buffer one slab of key-value pairs. The victims are on no recency
	// list while the flush is in flight; mark them in transit so
	// concurrent Touch/Release leave the relinking to us, and hold them for
	// the job.
	for _, v := range victims {
		v.inTransit = true
		v.Hold()
		m.event(v, EvictStaged)
	}
	job := flushJob{victims: victims, class: victimClass, chunk: chunk, gen: m.gen}
	m.flushing++
	t0 := p.Now()
	p.Sleep(sim.TransferTime(len(victims)*chunk, sim.MemcpyBps))
	if m.gen != job.gen {
		// Cold restart happened while we were buffering: the allocator and
		// LRU state the victims belonged to is gone. Abandon them.
		m.abandonJob(job)
		return
	}
	if w := m.windows[p]; m.cfg.AsyncFlush || w != nil {
		// Staged: the staging copy holds the data, so the RAM chunks free
		// now and the SSD write is deferred — to the background flusher
		// (write-behind; Put blocks when the staging pool is full, the only
		// stall the allocating request can see), or to this worker's
		// EndEvictionBatch, where a window's jobs merge (doorbell batching).
		for range victims {
			m.alloc.Free(victimClass)
		}
		if w != nil {
			w.jobs = append(w.jobs, job)
		} else {
			m.flushQ.Put(p, job)
		}
	} else {
		job.inRAM = true
		m.place(p, []flushJob{job})
	}
	m.FlushTime += p.Now() - t0
}

// asyncFlusher drains staged evictions in the background (write-behind).
func (m *Manager) asyncFlusher(p *sim.Proc) {
	for {
		job, _ := m.flushQ.Get(p)
		m.place(p, []flushJob{job})
	}
}

// --- Eviction coalescing (doorbell batching) ---

// evictionWindow accumulates evictions staged by one worker process while it
// executes a batch of requests back-to-back.
type evictionWindow struct {
	jobs []flushJob
}

// BeginEvictionBatch opens a coalescing window for the calling process:
// until its EndEvictionBatch, synchronous evictions it triggers only stage
// their victims and free the RAM chunks; the SSD writes are deferred and
// merged. A window is open or not — windows do not nest, and a second Begin
// on an open one changes nothing; other workers' evictions are unaffected. A
// no-op for RAM-only managers (eviction just drops) and under AsyncFlush
// (write-behind already decouples the write).
func (m *Manager) BeginEvictionBatch(p *sim.Proc) {
	if m.file == nil || m.cfg.AsyncFlush || m.windows[p] != nil {
		return
	}
	m.windows[p] = &evictionWindow{}
}

// EndEvictionBatch closes the calling process's window and lands its
// deferred evictions, merged (place).
func (m *Manager) EndEvictionBatch(p *sim.Proc) {
	w := m.windows[p]
	if w == nil {
		return
	}
	delete(m.windows, p)
	if len(w.jobs) == 0 {
		return
	}
	t0 := p.Now()
	m.place(p, w.jobs)
	m.FlushTime += p.Now() - t0
}

// place lands jobs on the SSD, in order. Adjacent jobs flushed under the same
// I/O scheme form a run. A run of several — a coalescing window's — shares
// one contiguously allocated stretch of arena and one larger sequential
// write, the amortization that makes a batch of Sets cost far fewer device
// writes than the same Sets issued one by one; every job still keeps its own
// region inside it, so arena reclaim stays page-granular. A run of one — all
// a synchronous eviction or the write-behind flusher ever passes — takes
// whatever region ssdAlloc finds: a pooled one, fresh arena, or one scavenged
// from cold SSD items; with none to be had its victims are dropped (LRU
// overflow discard). So does each job of a run the arena has no contiguous
// stretch left for (full or fragmented), one by one — and since every write
// suspends, each re-checks that its incarnation is still the live one.
func (m *Manager) place(p *sim.Proc, jobs []flushJob) {
	for len(jobs) > 0 {
		scheme := m.flushScheme(jobs[0].class)
		n, total := 0, int64(0)
		for n < len(jobs) && m.flushScheme(jobs[n].class) == scheme {
			total += jobs[n].size()
			n++
		}
		run := jobs[:n]
		jobs = jobs[n:]
		if n > 1 && run[0].gen == m.gen {
			if base, ok := m.ssdAllocContig(total); ok {
				m.land(p, run, base, scheme)
				continue
			}
		}
		for i, job := range run {
			if job.gen != m.gen {
				// Staged before a cold restart: the rebuilt arena must not
				// receive this page.
				m.abandonJob(job)
			} else if base, ok := m.ssdAlloc(job.size()); ok {
				m.land(p, run[i:i+1], base, scheme)
			} else {
				m.dropJob(job)
				m.jobDone()
			}
		}
	}
}

// land writes run's regions back to back from base and settles every job by
// how the write ended. A refused write leaves the victims RAM-resident —
// unless the device keeps failing past a small budget, when eviction sheds
// them: a cache must make forward progress on a dying drive.
func (m *Manager) land(p *sim.Proc, run []flushJob, base int64, scheme pagecache.Scheme) {
	outcome := m.writeRun(p, run, base, scheme)
	for _, job := range run {
		switch {
		case outcome == runAbandoned:
			m.abandonJob(job)
			continue
		case outcome == runLanded:
			m.placeAt(job, base)
			base += job.size()
		case m.flushFailStreak > flushFailBudget:
			m.dropJob(job)
		default:
			m.unflush(job)
		}
		m.jobDone()
	}
}

// runOutcome is how a region write ended.
type runOutcome int

const (
	// runLanded: data and commit records are on the SSD; the caller links
	// the items to their slots.
	runLanded runOutcome = iota
	// runRefused: the device refused the data or the commit write. Nothing
	// is placed and the regions are back in the free pool, clean.
	runRefused
	// runAbandoned: a cold restart tore this incarnation down while the
	// write was suspended. The items are unreachable from the rebuilt
	// index, and the caller must touch none of the rebuilt state.
	runAbandoned
)

// writeRun is the one region writer: every slab page that reaches the SSD —
// an eviction's, a merged window's, a relocation's — is written here, in the
// crash-consistent format of format.go. The regions of run lie back to back
// from base, under one commit epoch. One data write covers every region's
// header and slots; the regions' commit records then land in one further
// small journal write, and only then is anything visible to recovery: a
// crash or a torn write between the two leaves the whole run uncommitted,
// and recovery discards every one of its pages.
//
// Both writes suspend, and a cold restart may happen under either; the
// generation is re-checked after each before any manager state is touched.
// A refused write (injected device error, direct I/O only) is undone here:
// whatever extents it placed are discarded and the regions pooled. The
// caller decides what becomes of the items.
func (m *Manager) writeRun(p *sim.Proc, run []flushJob, base int64, scheme pagecache.Scheme) runOutcome {
	gen0 := m.gen
	epoch := m.nextEpoch()
	slots, total := 0, int64(0)
	for _, job := range run {
		slots += 1 + len(job.victims)
		total += job.size()
	}
	// One backing array serves both writes — every region's data extents,
	// then the commit records — so a run of one allocates one slice.
	data := make([]pagecache.Extent, 0, slots+len(run))
	commits := data[slots:slots]
	off := base
	for _, job := range run {
		var commit pagecache.Extent
		data, commit = m.buildRegion(job, off, epoch, data)
		commits = append(commits, commit)
		off += job.size()
	}
	// The data write is the contiguous stretch up to the last commit sector,
	// which WriteCommit writes: interior commit sectors lie inside it.
	ok := m.file.WriteExtents(p, base, int(total)-PageCommitSize, data, scheme)
	if m.gen != gen0 {
		return runAbandoned
	}
	if ok {
		m.FlushWrites++
		m.written += total
		ok = m.file.WriteCommit(p, commits)
		if m.gen != gen0 {
			return runAbandoned
		}
	}
	if !ok {
		m.FlushErrors++
		m.flushFailStreak++
		for _, job := range run {
			m.purgeRegion(base, len(job.victims), job.chunk)
			base += job.size()
		}
		return runRefused
	}
	m.flushFailStreak = 0
	m.CommitWrites++
	return runLanded
}

// purgeRegion drops every extent a region may hold on the SSD — header, n
// slots, commit record — and returns it to the free pool, clean for reuse.
func (m *Manager) purgeRegion(base int64, n, chunk int) {
	for i := 0; i < n; i++ {
		m.file.Discard(slotOff(base, i, chunk))
	}
	m.recycle(base, regionSize(n, chunk))
}

// recycle returns a region with no live slot to the free pool. Its header
// and commit record go too, so a later recovery scan doesn't wade through a
// dead page.
func (m *Manager) recycle(base, size int64) {
	m.file.Discard(base)
	m.file.Discard(commitOff(base, size))
	m.ssdFree[size] = append(m.ssdFree[size], base)
}

// ssdAllocContig bump-allocates fresh arena. A merged run has nowhere else
// to go — freed regions are job-sized, not run-sized — so on failure place
// falls back to job-by-job placement.
func (m *Manager) ssdAllocContig(size int64) (int64, bool) {
	if m.ssdNext+size <= m.ssdLimit {
		off := m.ssdNext
		m.ssdNext += size
		return off, true
	}
	return 0, false
}

// flushFailBudget is how many consecutive region writes may fail on device
// write errors before eviction falls back to dropping victims outright
// instead of keeping them RAM-resident (which would otherwise livelock
// allocation against a persistently failing drive).
const flushFailBudget = 3

// unflush undoes a refused flush: the victims return to the RAM recency
// list instead of being half-placed on the SSD. Chunks already freed at
// staging time are re-allocated without recursive eviction — victims that no
// longer fit are shed.
func (m *Manager) unflush(job flushJob) {
	for _, v := range job.victims {
		v.inTransit = false
		switch {
		case v.dropped:
			if job.inRAM {
				m.alloc.Free(job.class)
			}
		case !job.inRAM && m.alloc.Alloc(job.class) == slab.AllocNeedEvict:
			// No RAM left and we must not evict from a failure path.
			m.shed(v)
		default:
			v.onSSD = false
			m.lrus[job.class].PushFront(&v.lru)
			m.event(v, EvictRestored)
		}
		v.Unhold()
	}
}

// abandonJob discards a job staged by a previous manager incarnation (cold
// restart while its worker was suspended): the items are unreachable from
// the rebuilt index, and none of the rebuilt state may be touched. Being an
// older incarnation's, they are never put back (Item.Unhold): there are no
// holds to give up.
func (m *Manager) abandonJob(job flushJob) {
	for _, v := range job.victims {
		v.inTransit = false
		v.Value = nil
		v.dropped = true
		m.event(v, EvictDropped)
	}
}

// jobDone retires one in-flight eviction and wakes allocation waiters.
func (m *Manager) jobDone() {
	m.flushing--
	ev := m.flushEv
	m.flushEv = m.env.NewEvent()
	ev.Fire()
}

// nextEpoch returns a fresh commit epoch.
func (m *Manager) nextEpoch() uint64 {
	m.epoch++
	return m.epoch
}

// shed discards an item's value entirely: the key is dead, a Get of it a
// miss, and the item no longer resident. The caller has already released
// whatever storage the item held.
func (m *Manager) shed(v *Item) {
	v.Value = nil
	v.dropped = true
	m.DropEvictions++
	m.event(v, EvictDropped)
	v.Unhold()
}

// dropJob discards a job's victims entirely (SSD full, or a device failing
// past its budget).
func (m *Manager) dropJob(job flushJob) {
	for _, v := range job.victims {
		if job.inRAM {
			m.alloc.Free(job.class)
		}
		v.inTransit = false
		if !v.dropped {
			m.shed(v)
		}
		v.Unhold()
	}
}

// placeAt links one landed job's victims to their SSD slots in the region
// at base. Each job gets its own ssdPage, so arena reclaim stays
// page-granular even when several jobs shared one merged write.
func (m *Manager) placeAt(job flushJob, base int64) {
	pg := &ssdPage{base: base, size: job.size(), landed: m.written}
	for i, v := range job.victims {
		if job.inRAM {
			m.alloc.Free(job.class)
		}
		v.inTransit = false
		off := slotOff(base, i, job.chunk)
		if v.dropped {
			// Deleted or replaced while the flush was in flight: invalidate
			// the slot the region write just placed so recovery cannot
			// resurrect the dead copy.
			m.freeSlot(pg, off)
		} else {
			v.onSSD = true
			v.ssdOff = off
			v.ssdPage = pg
			m.ssdLRU.PushFront(&v.lru)
			pg.live++
			m.event(v, EvictLanded)
		}
		v.Unhold()
	}
	m.settle(pg)
	m.FlushPages++
}

// settle accounts a freshly written region once its items are linked: one
// nobody survived into (every item died while the write was in flight) is
// recycled on the spot.
func (m *Manager) settle(pg *ssdPage) {
	if pg.live == 0 {
		m.recycle(pg.base, pg.size)
	} else {
		m.ssdUsed += pg.size
	}
}

// popFree takes a pooled region of exactly size, if there is one.
func (m *Manager) popFree(size int64) (int64, bool) {
	free := m.ssdFree[size]
	if len(free) == 0 {
		return 0, false
	}
	m.ssdFree[size] = free[:len(free)-1]
	return free[len(free)-1], true
}

// ssdAlloc finds space for one region: a pooled region of the same size,
// else fresh arena, else — the arena being full — whatever discarding cold
// SSD items frees up.
func (m *Manager) ssdAlloc(size int64) (int64, bool) {
	if off, ok := m.popFree(size); ok {
		return off, true
	}
	if off, ok := m.ssdAllocContig(size); ok {
		return off, true
	}
	// Reclaim: drop LRU SSD items until a same-size free region appears.
	for m.ssdLRU.Len() > 0 {
		v := m.ssdLRU.PopBack().Value
		m.freeSSD(v)
		m.shed(v)
		if off, ok := m.popFree(size); ok {
			return off, true
		}
	}
	return 0, false
}

// freeSSD releases an item's SSD slot; the flush region returns to the free
// pool once its last slot is freed. The caller owns LRU bookkeeping.
func (m *Manager) freeSSD(it *Item) {
	pg := it.ssdPage
	m.freeSlot(pg, it.ssdOff)
	pg.live--
	if pg.live == 0 && !pg.relocating && !pg.quarantined {
		// Quarantined regions are deliberately NOT pooled here — they sit
		// out until the scrub pass reclaims them (ReclaimQuarantined), so
		// the allocator can never place fresh data on suspect media
		// before scrub has looked at it.
		m.retireRegion(pg)
	}
	it.onSSD = false
	it.ssdPage = nil
}

// freeSlot is every slot death outside recovery: the slot at off in region
// pg holds nothing any more. Under PolicyAdaptive the region was written
// through the page cache, and if it landed less than the cache's dirty limit
// of region writes ago its pages may still be queued for writeback: the slot
// is punched out of the cache (pagecache.File.Punch), so its dead interior
// pages never reach the drive. A release must not suspend, so the punch
// takes effect now and its syscall is owed to the next Store. An older
// slot's pages are clean, and direct I/O caches none: those are only
// discarded, at no cost.
func (m *Manager) freeSlot(pg *ssdPage, off int64) {
	if m.cfg.Policy == PolicyAdaptive && m.written-pg.landed < m.dirtyLimit() {
		m.file.Punch(off)
		m.punches++
		return
	}
	m.file.Discard(off)
}

// dirtyLimit is the page cache's dirty limit in bytes.
func (m *Manager) dirtyLimit() int64 { return m.file.Cache().Params().DirtyLimit() }

// retireRegion recycles an accounted region whose last live slot is gone.
func (m *Manager) retireRegion(pg *ssdPage) {
	m.recycle(pg.base, pg.size)
	m.ssdUsed -= pg.size
}

// Load fetches the item's value for a Get, charging p the chunk copy and,
// for SSD residents, the direct chunk read. This is the "Cache Check and
// Load" stage.
//
// SSD-resident items are served in place and stay on the SSD (fatcache
// semantics: minimal disk reads on hits, no write-amplifying promotion
// churn); recency is tracked in the SSD-side list so overflow eviction
// still discards the coldest items first.
//
// The caller holds it across the call: the load suspends, and an item
// released meanwhile is not reused under it.
func (m *Manager) Load(p *sim.Proc, it *Item) (any, error) {
	it.mustBeHeld("Load")
	if m.recovering {
		return nil, ErrRecovering
	}
	m.Gets++
	if it.gen != m.gen || it.dropped {
		// Discarded — or a reference that crossed a cold restart: its
		// storage belongs to the torn-down incarnation.
		return nil, ErrDropped
	}
	if !it.onSSD {
		p.Sleep(sim.TransferTime(it.ValueSize, sim.MemcpyBps))
		m.Hits++
		return it.Value, nil
	}
	t0 := p.Now()
	v, state := m.readSlot(p, it, m.loadScheme(it.class))
	m.SSDLoads++
	switch state {
	case slotGone:
		return nil, ErrDropped
	case slotLost:
		m.retire(it)
		return nil, ErrDropped
	case slotCorrupt:
		m.quarantineCorrupt(it)
		return nil, ErrCorrupt
	}
	p.Sleep(sim.TransferTime(it.ValueSize, sim.MemcpyBps))
	m.SSDLoadTime += p.Now() - t0
	m.Hits++
	return v, nil
}

// ErrDropped marks an item whose value was discarded by eviction.
var ErrDropped = errors.New("hybridslab: item evicted")

// ErrRecovering is returned while a cold-restart recovery scan is rebuilding
// the store: callers fail fast instead of racing the rebuild.
var ErrRecovering = errors.New("hybridslab: recovery in progress")

// Touch promotes the item in its recency list (the "Cache Update" stage).
func (m *Manager) Touch(it *Item) {
	it.mustBeHeld("Touch")
	if it.dropped || it.inTransit || it.gen != m.gen {
		return
	}
	if it.onSSD {
		m.ssdLRU.Touch(&it.lru)
	} else {
		m.lrus[it.class].Touch(&it.lru)
	}
}

// Release frees the item's storage (delete or replace), and with it the
// manager's hold.
func (m *Manager) Release(it *Item) {
	it.mustBeHeld("Release")
	if it.dropped {
		return
	}
	switch {
	case it.gen != m.gen:
		// Stale reference across a cold restart: its storage is gone.
	case it.inTransit:
		// The evicting worker owns the chunk; it will free it when it
		// observes the drop.
	case it.onSSD:
		m.ssdLRU.Remove(&it.lru)
		m.freeSSD(it)
	default:
		m.lrus[it.class].Remove(&it.lru)
		m.alloc.Free(it.class)
	}
	it.Value = nil
	it.dropped = true
	it.Unhold()
}

// VisitLRU calls fn for up to limit items per recency list (each RAM class
// tail-first, then the SSD list). fn must not mutate the lists; collect and
// act afterwards. Iteration order is deterministic.
func (m *Manager) VisitLRU(limit int, fn func(*Item) bool) {
	for i := range m.lrus {
		n := 0
		for e := m.lrus[i].Back(); e != nil && n < limit; n++ {
			if !fn(e.Value) {
				return
			}
			e = e.Prev()
		}
	}
	n := 0
	for e := m.ssdLRU.Back(); e != nil && n < limit; n++ {
		if !fn(e.Value) {
			return
		}
		e = e.Prev()
	}
}

// RAMItems returns the number of RAM-resident items.
func (m *Manager) RAMItems() int {
	n := 0
	for i := range m.lrus {
		n += m.lrus[i].Len()
	}
	return n
}

// SSDItems returns the number of SSD-resident items.
func (m *Manager) SSDItems() int { return m.ssdLRU.Len() }
