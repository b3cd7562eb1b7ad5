// Package blockdev models flash block devices (SATA and NVMe SSDs) under
// the sim kernel.
//
// A Device executes read/write commands with a first-order service-time
// model: per-command base latency plus size over sustained bandwidth,
// executed on a bounded number of internal channels (the effective queue
// depth the drive can serve in parallel). Commands queue FIFO when all
// channels are busy, which is how a busy hybrid Memcached server's SSD
// backlog forms.
//
// Contents are tracked as opaque payload references per (offset,size)
// extent — the simulation moves ownership tokens, not bytes, so a 4 GB
// simulated store costs a few MB of host memory.
package blockdev

import (
	"fmt"
	"math/rand"
	"sort"

	"hybridkv/internal/sim"
)

// Profile is the cost model of one drive type.
type Profile struct {
	Name      string
	ReadBase  sim.Time // command setup + flash read latency
	WriteBase sim.Time // command setup + program latency (drive-buffer ack)
	ReadBps   int64    // sustained read bandwidth, bytes/sec
	WriteBps  int64    // sustained write bandwidth, bytes/sec
	// Channels is the number of commands the drive services concurrently
	// (flash channel parallelism as exposed through the host interface:
	// shallow for AHCI/SATA, deep for NVMe).
	Channels int
	// SyncBarrier is the cost of a synchronous cache-flush barrier (the
	// price of synchronous direct I/O on the request path). Consumer SATA
	// drives pay a full program/flush cycle; datacenter NVMe drives with
	// power-loss-protected write buffers ack almost immediately.
	SyncBarrier sim.Time
}

// SATA models the local SATA SSD on SDSC Comet compute nodes ("Cluster A").
func SATA() Profile {
	return Profile{
		Name:      "SATA-SSD",
		ReadBase:  90 * sim.Microsecond,
		WriteBase: 70 * sim.Microsecond,
		ReadBps:   500_000_000,
		WriteBps:  430_000_000,
		Channels:  4, // NCQ-effective random-read parallelism
		// Full on-drive cache flush per synchronous direct write: consumer
		// SATA fsync latencies of 5-20 ms are routinely measured.
		SyncBarrier: 3 * sim.Millisecond,
	}
}

// NVMe models the Intel P3700 NVMe SSD on OSU NowLab nodes ("Cluster B").
func NVMe() Profile {
	return Profile{
		Name:        "NVMe-SSD",
		ReadBase:    20 * sim.Microsecond,
		WriteBase:   15 * sim.Microsecond,
		ReadBps:     2_700_000_000,
		WriteBps:    1_900_000_000,
		Channels:    8,
		SyncBarrier: 50 * sim.Microsecond,
	}
}

// ReadTime returns the single-command service time for a size-byte read.
func (pr Profile) ReadTime(size int) sim.Time {
	return pr.ReadBase + bwTime(size, pr.ReadBps)
}

// WriteTime returns the single-command service time for a size-byte write.
func (pr Profile) WriteTime(size int) sim.Time {
	return pr.WriteBase + bwTime(size, pr.WriteBps)
}

func bwTime(size int, bps int64) sim.Time {
	if size <= 0 || bps <= 0 {
		return 0
	}
	return sim.Time(float64(size) / float64(bps) * float64(sim.Second))
}

// SectorSize is the atomic write unit of the media: a torn write persists a
// whole number of leading sectors and nothing after them.
const SectorSize = 512

// Device is one simulated drive.
type Device struct {
	env      *sim.Env
	prof     Profile
	capacity int64
	channels *sim.Resource
	extents  map[int64]extent

	// durable is what the platters hold across a power cycle, fed by the
	// persistence-aware write paths (pagecache.File.WriteExtents /
	// WriteCommit). It is kept separate from extents — the running system's
	// logical view — so that torn writes can persist a sector prefix without
	// the live store observing the tear.
	durable map[int64]DurExtent

	// Fault injection (SetFaults). The RNG is only consulted while a
	// probability is non-zero, so an unfaulted device stays deterministic.
	faultRNG     *rand.Rand
	readErrProb  float64
	writeErrProb float64

	// Torn-write injection (SetTornWrites): a write command may persist only
	// a prefix of its sectors, modeling power loss mid-program.
	tornRNG  *rand.Rand
	tornProb float64

	// Fail-slow injection (AddSlow): scheduled windows during which every
	// command's service time is multiplied and floored. Purely a timing
	// transform — no RNG, no errors — so a limping drive stays limping for
	// exactly the scheduled interval on every replay.
	slowWindows []SlowWindow

	// Bit-rot injection (AddBitRot): latent at-rest corruption. Whether and
	// when a durable extent rots is a pure hash of (seed, offset), drawn
	// from no RNG stream, so arming rot perturbs nothing else and faulted
	// runs replay exactly.
	rotWindows []RotWindow

	// Stats
	Reads, Writes         int64
	BytesRead, BytesWrite int64
	BusyTime              sim.Time
	// ReadErrors / WriteErrors count injected I/O failures.
	ReadErrors, WriteErrors int64
	// TornWrites counts writes that persisted only a sector prefix.
	TornWrites int64
	// SlowedIOs counts commands stretched by a slow window.
	SlowedIOs int64
	// RottenReads counts device-touching reads that returned rotted
	// contents (the injector biting; detection is the reader's job).
	RottenReads int64
}

// SlowWindow is one fail-slow interval: commands serviced in [From, To)
// take Mult times their modeled service time, floored at Floor. This is
// the SSD-side gray failure — a drive that still completes every command,
// just slowly (media wear, thermal throttling, internal GC storms).
type SlowWindow struct {
	From, To sim.Time
	// Mult multiplies the profile's service time (1.0 = no change; values
	// below 1 are treated as 1).
	Mult float64
	// Floor is the minimum service time of an affected command, modeling
	// degraded drives whose small-command latency collapses to a fixed,
	// high per-command cost.
	Floor sim.Time
}

// RotWindow is one scheduled bit-rot interval: a rate-sized fraction of
// durable extents each silently corrupt at a per-extent instant inside
// [From, To), chosen by hashing the extent offset with Seed. Rot is latent:
// nothing happens until the extent is next read off the media, which is
// what distinguishes it from the write-time torn/error injection. An
// extent rewritten after its rot instant is clean again (fresh charge in
// the cells), matching how real latent sector errors behave.
type RotWindow struct {
	Seed     uint64
	From, To sim.Time
	Rate     float64
}

type extent struct {
	size    int
	payload any
}

// DurExtent is one durably-persisted extent. Valid < Size marks a torn
// extent: only the first Valid bytes reached the media, so any checksum
// over the full extent fails. WrittenAt is the persist instant, consulted
// by the bit-rot predicate (a rewrite refreshes the cells).
type DurExtent struct {
	Size      int
	Payload   any
	Valid     int
	WrittenAt sim.Time
}

// Rotted wraps a read payload whose media cells rotted after it was
// persisted: the bits returned are not the bits written. Integrity-checking
// readers (the hybrid slab's verify path) detect the wrapper the way a real
// reader detects a checksum mismatch; readers with verification disabled
// unwrap it and surface garbage — exactly the failure mode the bitrot
// experiment's nodefense cells measure.
type Rotted struct {
	Payload any
}

// Torn reports whether the extent persisted incompletely.
func (e DurExtent) Torn() bool { return e.Valid < e.Size }

// New creates a drive of the given profile and capacity (bytes).
func New(env *sim.Env, prof Profile, capacity int64) *Device {
	if prof.Channels <= 0 {
		prof.Channels = 1
	}
	return &Device{
		env:      env,
		prof:     prof,
		capacity: capacity,
		channels: sim.NewResource(env, prof.Channels),
		extents:  make(map[int64]extent),
		durable:  make(map[int64]DurExtent),
	}
}

// Profile returns the drive's cost model.
func (d *Device) Profile() Profile { return d.prof }

// SetFaults arms I/O error injection: each read (write) command fails
// uncorrectably with probability readErr (writeErr). Zero probabilities
// disarm injection.
func (d *Device) SetFaults(seed int64, readErr, writeErr float64) {
	d.faultRNG = rand.New(rand.NewSource(seed))
	d.readErrProb = readErr
	d.writeErrProb = writeErr
}

// InjectReadError draws one read-command fault decision. Layers that model
// device timing themselves (the page cache) consult this on their
// device-touching read paths.
func (d *Device) InjectReadError() bool {
	if d.readErrProb <= 0 || d.faultRNG == nil {
		return false
	}
	if d.faultRNG.Float64() < d.readErrProb {
		d.ReadErrors++
		return true
	}
	return false
}

// InjectWriteError draws one write-command fault decision.
func (d *Device) InjectWriteError() bool {
	if d.writeErrProb <= 0 || d.faultRNG == nil {
		return false
	}
	if d.faultRNG.Float64() < d.writeErrProb {
		d.WriteErrors++
		return true
	}
	return false
}

// AddSlow schedules a fail-slow window: commands serviced in [from, to)
// take mult× their modeled time, floored at floor. Windows may overlap;
// the worst (longest) resulting service time wins. With no windows
// installed the timing paths are untouched, keeping unfaulted runs
// bit-identical.
func (d *Device) AddSlow(from, to sim.Time, mult float64, floor sim.Time) {
	d.slowWindows = append(d.slowWindows, SlowWindow{From: from, To: to, Mult: mult, Floor: floor})
}

// slowTime applies the active slow windows to a modeled service time.
func (d *Device) slowTime(at sim.Time, t sim.Time) sim.Time {
	if len(d.slowWindows) == 0 {
		return t
	}
	out := t
	for _, w := range d.slowWindows {
		if at < w.From || at >= w.To {
			continue
		}
		st := t
		if w.Mult > 1 {
			st = sim.Time(float64(t) * w.Mult)
		}
		if st < w.Floor {
			st = w.Floor
		}
		if st > out {
			out = st
		}
	}
	if out > t {
		d.SlowedIOs++
	}
	return out
}

// AddBitRot schedules latent at-rest corruption: a rate-sized fraction of
// durable extents (chosen by hashing their offsets with seed) each rot at a
// deterministic instant inside [from, to). The decision is a pure function
// of (seed, offset) — no RNG stream is consulted, ever — so arming bit-rot
// changes no other draw in the run and the same seed replays the exact same
// corruption. Rot is latent until read: a read that touches the device at or
// after the extent's rot instant observes Rotted contents, while extents
// rewritten after their rot instant read clean.
func (d *Device) AddBitRot(seed int64, from, to sim.Time, rate float64) {
	d.rotWindows = append(d.rotWindows, RotWindow{Seed: uint64(seed), From: from, To: to, Rate: rate})
}

// rotHash is a seeded splitmix64-style mix over an extent offset; stream
// separates the "does it rot" draw from the "when does it rot" draw.
func rotHash(seed, off, stream uint64) uint64 {
	x := seed ^ off*0x9e3779b97f4a7c15 ^ stream*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Rotten reports whether the durable extent at off reads corrupt at time
// at: some window selected it, its rot instant has passed, and it has not
// been rewritten since. This is the injector's ground truth — no counters,
// no time charge — for oracles and tests.
func (d *Device) Rotten(off int64, at sim.Time) bool {
	if len(d.rotWindows) == 0 {
		return false
	}
	e, ok := d.durable[off]
	if !ok {
		return false
	}
	for _, w := range d.rotWindows {
		h := rotHash(w.Seed, uint64(off), 1)
		if float64(h>>11)/float64(1<<53) >= w.Rate {
			continue
		}
		rotAt := w.From
		if span := w.To - w.From; span > 0 {
			rotAt += sim.Time(rotHash(w.Seed, uint64(off), 2) % uint64(span))
		}
		if at >= rotAt && e.WrittenAt <= rotAt {
			return true
		}
	}
	return false
}

// RotRead is the read-path consultation: like Rotten, but counts the bite.
// Layers that model device timing themselves (the page cache) call this on
// exactly the same device-touching reads that consult InjectReadError, and
// only after charging the normal service time — a rotted read costs the
// same as a clean one, so defense cells stay virtual-time-comparable to
// nodefense cells.
func (d *Device) RotRead(off int64, at sim.Time) bool {
	if d.Rotten(off, at) {
		d.RottenReads++
		return true
	}
	return false
}

// SetTornWrites arms torn-write injection: each persisting write command
// tears with probability prob, leaving only a uniformly-drawn sector prefix
// on the media. Zero probability disarms injection.
func (d *Device) SetTornWrites(seed int64, prob float64) {
	d.tornRNG = rand.New(rand.NewSource(seed))
	d.tornProb = prob
}

// InjectTorn draws one torn-write decision for a size-byte command: the
// number of bytes that actually persisted (a multiple of SectorSize, < size
// when torn) and whether the command tore.
func (d *Device) InjectTorn(size int) (persisted int, torn bool) {
	if d.tornProb <= 0 || d.tornRNG == nil || size <= SectorSize {
		return size, false
	}
	if d.tornRNG.Float64() >= d.tornProb {
		return size, false
	}
	sectors := (size + SectorSize - 1) / SectorSize
	// Persist [0, sectors) whole sectors — never all of them.
	persisted = d.tornRNG.Intn(sectors) * SectorSize
	d.TornWrites++
	return persisted, true
}

// Persist records a durable extent: what a cold restart will find at off.
// Valid < size marks the extent torn. Time is not charged here — callers
// charge the device through the normal write paths.
func (d *Device) Persist(off int64, size, valid int, payload any) {
	if valid <= 0 {
		delete(d.durable, off)
		return
	}
	d.durable[off] = DurExtent{Size: size, Payload: payload, Valid: valid, WrittenAt: d.env.Now()}
}

// DiscardDurable drops the durable extent at off (slot invalidation /
// region reuse).
func (d *Device) DiscardDurable(off int64) { delete(d.durable, off) }

// PeekDurable returns the durable extent at off without any time charge.
func (d *Device) PeekDurable(off int64) (DurExtent, bool) {
	e, ok := d.durable[off]
	return e, ok
}

// DurableOffsets returns every durable extent offset in [lo, hi), sorted —
// the scan order of a recovery pass.
func (d *Device) DurableOffsets(lo, hi int64) []int64 {
	var offs []int64
	for off := range d.durable {
		if off >= lo && off < hi {
			offs = append(offs, off)
		}
	}
	sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
	return offs
}

// DurableEnd returns the end offset of the highest durable extent in
// [lo, hi), or lo when none exist — where a rebuilt bump allocator must
// resume to avoid overwriting surviving data.
func (d *Device) DurableEnd(lo, hi int64) int64 {
	end := lo
	for off, e := range d.durable {
		if off >= lo && off < hi && off+int64(e.Size) > end {
			end = off + int64(e.Size)
		}
	}
	return end
}

// WriteAt stores payload at offset, blocking the calling process for the
// queueing plus service time.
func (d *Device) WriteAt(p *sim.Proc, off int64, size int, payload any) {
	d.check(off, size)
	d.channels.Acquire(p)
	t := d.slowTime(p.Now(), d.prof.WriteTime(size))
	p.Sleep(t)
	d.channels.Release()
	d.Writes++
	d.BytesWrite += int64(size)
	d.BusyTime += t
	if d.InjectWriteError() {
		// Failed program: the extent keeps (or lacks) its old contents.
		return
	}
	d.extents[off] = extent{size: size, payload: payload}
}

// ReadAt fetches the payload stored at offset, blocking for the queueing
// plus service time. ok is false if nothing was ever written there.
func (d *Device) ReadAt(p *sim.Proc, off int64, size int) (payload any, ok bool) {
	d.check(off, size)
	d.channels.Acquire(p)
	t := d.slowTime(p.Now(), d.prof.ReadTime(size))
	p.Sleep(t)
	d.channels.Release()
	d.Reads++
	d.BytesRead += int64(size)
	d.BusyTime += t
	if d.InjectReadError() {
		return nil, false
	}
	e, ok := d.extents[off]
	if !ok {
		return nil, false
	}
	// Service time is already charged: a rotted read costs what a clean
	// one does, it just hands back bits that no longer match the write.
	if d.RotRead(off, p.Now()) {
		return Rotted{Payload: e.payload}, true
	}
	return e.payload, true
}

// Barrier charges a synchronous flush barrier (direct/sync write path).
func (d *Device) Barrier(p *sim.Proc) {
	if d.prof.SyncBarrier <= 0 {
		return
	}
	d.channels.Acquire(p)
	t := d.slowTime(p.Now(), d.prof.SyncBarrier)
	p.Sleep(t)
	d.channels.Release()
	d.BusyTime += t
}

// ServeRaw charges the device for a command of the given kind and size
// without touching the extent map. The page cache writeback path uses it.
func (d *Device) ServeRaw(p *sim.Proc, write bool, size int) {
	d.channels.Acquire(p)
	var t sim.Time
	if write {
		t = d.prof.WriteTime(size)
		d.Writes++
		d.BytesWrite += int64(size)
	} else {
		t = d.prof.ReadTime(size)
		d.Reads++
		d.BytesRead += int64(size)
	}
	t = d.slowTime(p.Now(), t)
	p.Sleep(t)
	d.channels.Release()
	d.BusyTime += t
}

func (d *Device) check(off int64, size int) {
	if off < 0 || size < 0 || (d.capacity > 0 && off+int64(size) > d.capacity) {
		panic(fmt.Sprintf("blockdev: access [%d,%d) outside capacity %d", off, off+int64(size), d.capacity))
	}
}
