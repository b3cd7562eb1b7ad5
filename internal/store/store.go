// Package store implements the Memcached item store: the hash table and
// item lifecycle (CAS, flags) on top of the hybrid slab
// manager, instrumented with the paper's per-stage profiler (Section III-A):
// slab allocation, cache check and load, and cache update are measured here;
// server response, client wait and miss penalty are measured by the server
// engine and client runtime.
package store

import (
	"errors"
	"math"
	"slices"
	"strings"

	"hybridkv/internal/hybridslab"
	"hybridkv/internal/keytab"
	"hybridkv/internal/metrics"
	"hybridkv/internal/pool"
	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
)

// Host-side costs of the request-handling core.
const (
	hashCost   = 120 * sim.Nanosecond // key hash + bucket probe
	updateCost = 150 * sim.Nanosecond // LRU relink + freshness bookkeeping
)

// ReadView is the store's versioned read-side publication interface: an
// implementation (the server-bypass Directory) mirrors the live item index
// so remote clients can resolve reads without the server CPU. The store
// calls PublishBegin before a mutation window opens for a published key,
// Publish when a key's current item (re)lands, and Unpublish when a key
// dies; eviction transitions arrive via EvictionUpdate.
type ReadView interface {
	PublishBegin(k protocol.Key)
	Publish(it *hybridslab.Item)
	Unpublish(k protocol.Key)
	EvictionUpdate(it *hybridslab.Item, ev hybridslab.NotifyEvent)
}

// Store is one server's key-value state.
type Store struct {
	env   *sim.Env
	mgr   *hybridslab.Manager
	table keytab.Table[*hybridslab.Item]
	cas   uint64
	view  ReadView

	// Hot-key detection: the access path feeds the space-saving sketch
	// (zero simulated cost — the real counterpart is a few arithmetic ops
	// folded into the hash probe), and the crawler distills it into the
	// published hot set served to clients on OpDirQuery.
	hot        *hotSketch
	hotSet     []uint64
	hotVersion uint64

	// Prof accumulates the server-side stage breakdown.
	Prof metrics.Breakdown

	crawlerStop *sim.Event

	// corruptNotify, when set, fires on every foreground read that failed
	// integrity verification (the key is already gone locally). The server
	// wires it to the replicator so a corrupt read opens a repair-pull
	// even when the client never retries the key.
	corruptNotify func(p *sim.Proc, k protocol.Key)

	// replies is the free list every answer of this store's server comes
	// from (Reply).
	replies pool.List[protocol.Response, *protocol.Response]

	// Stats
	SetOps, GetOps, DeleteOps int64
	GetHits, GetMisses        int64
	// CorruptReads counts foreground reads answered StatusCorrupt: the
	// on-SSD copy failed verification and was quarantined.
	CorruptReads int64
}

// SetCorruptNotify installs the corrupt-read callback (replication repair
// hook). Call before the simulation runs.
func (s *Store) SetCorruptNotify(fn func(p *sim.Proc, k protocol.Key)) { s.corruptNotify = fn }

// New creates a store over the given slab manager.
func New(env *sim.Env, mgr *hybridslab.Manager) *Store {
	return &Store{env: env, mgr: mgr, hot: newHotSketch(hotSketchCap)}
}

// item returns k's table entry, or nil.
func (s *Store) item(k protocol.Key) *hybridslab.Item {
	it, _ := s.table.Get(k)
	return it
}

// Manager returns the underlying hybrid slab manager.
func (s *Store) Manager() *hybridslab.Manager { return s.mgr }

// EvacuateQuarantined drains quarantined SSD regions: verified-clean slots
// move to fresh media, slots that fail re-verification are retired as a
// corrupt read retires its item (loadFailed) — but by the scrub pass, not a
// client's read, so CorruptReads does not count them.
func (s *Store) EvacuateQuarantined(p *sim.Proc) {
	_, corrupt := s.mgr.EvacuateQuarantined(p)
	for _, it := range corrupt {
		// The read may have suspended, and so may each loadFailed; only tear
		// down a table entry the retired item still owns (a concurrent Set
		// installs a new one). The evacuation holds every item of the list
		// until the loop ends, so none is reused and matches by accident.
		if s.item(it.HKey()) != it {
			continue
		}
		s.loadFailed(p, it.HKey(), hybridslab.ErrCorrupt)
	}
	for _, it := range corrupt {
		it.Unhold()
	}
}

// loadFailed is the one rule for a failed load of key's item, the table's
// entry: it tears down what err killed and returns the answer. ErrRecovering
// is transient — the item may well be recovered — so the entry stays:
// StatusRecovering. Anything else drops the entry, with the table's hold on
// the item, and unpublishes it. ErrCorrupt (the SSD copy failed
// verification: quarantined, not legally evicted) fires the corrupt hook, so
// replication opens a repair-pull, and answers StatusCorrupt; the rest (the
// value dropped by eviction) is a miss.
func (s *Store) loadFailed(p *sim.Proc, k protocol.Key, err error) protocol.Status {
	if errors.Is(err, hybridslab.ErrRecovering) {
		return protocol.StatusRecovering
	}
	s.item(k).Unhold()
	s.table.Delete(k)
	s.unpublish(k)
	if !errors.Is(err, hybridslab.ErrCorrupt) {
		return protocol.StatusNotFound
	}
	if s.corruptNotify != nil {
		s.corruptNotify(p, k)
	}
	return protocol.StatusCorrupt
}

// SetReadView installs the read-side publication view and subscribes it to
// the slab manager's eviction lifecycle.
func (s *Store) SetReadView(v ReadView) {
	s.view = v
	s.mgr.SetNotify(v.EvictionUpdate)
}

func (s *Store) publishBegin(k protocol.Key) {
	if s.view != nil {
		s.view.PublishBegin(k)
	}
}

func (s *Store) publish(it *hybridslab.Item) {
	if s.view != nil {
		s.view.Publish(it)
	}
}

func (s *Store) unpublish(k protocol.Key) {
	if s.view != nil {
		s.view.Unpublish(k)
	}
}

// PublishAll (re)publishes every live key into the read view, in sorted
// order for determinism. The server calls it after a restart repopulates or
// revalidates the table, undoing the crash-time Quiesce.
func (s *Store) PublishAll() {
	if s.view == nil {
		return
	}
	for _, k := range s.Keys() {
		s.publish(s.item(k))
	}
}

// Len returns the number of live keys.
func (s *Store) Len() int { return s.table.Len() }

// Keys returns the live key set in sorted order. Replication uses it to
// mark recovered keys suspect after a cold restart.
func (s *Store) Keys() []protocol.Key {
	keys := make([]protocol.Key, 0, s.table.Len())
	for k := range s.table.All() {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b protocol.Key) int { return strings.Compare(a.Str, b.Str) })
	return keys
}

// ReadItem fetches key's current value and metadata without touching
// statistics or LRU state. The replication repair path uses it to
// build push frames for values that may reside on SSD, and the bench
// verification oracle uses it to audit post-run state; neither should
// perturb cache behavior. Returns ok=false on a miss or when the value is
// unreadable (dropped by eviction, corrupt, or the store is recovering). A
// failed load of the item the table still holds is torn down as Get's is
// (loadFailed): a corrupt copy met on the repair path fires the corrupt hook,
// so this replica repair-pulls the key with no client reading it.
func (s *Store) ReadItem(p *sim.Proc, k protocol.Key) (value any, size int, flags uint32, ok bool) {
	it := s.item(k)
	if it == nil {
		return nil, 0, 0, false
	}
	it.Hold()
	defer it.Unhold()
	v, err := s.mgr.Load(p, it)
	if err != nil {
		if s.item(k) == it {
			s.loadFailed(p, k, err)
		}
		return nil, 0, 0, false
	}
	return v, it.ValueSize, it.Flags, true
}

// RecoverCold rebuilds the store from the SSD after a cold restart: the hash
// table is rebuilt from scratch out of the manager's recovery scan, and the
// CAS counter resumes above the highest recovered token so post-recovery
// stores never reuse a pre-crash CAS value.
func (s *Store) RecoverCold(p *sim.Proc) hybridslab.RecoveryReport {
	// The old table's items are the torn-down incarnation's, never put back
	// (hybridslab.Item.Unhold): the table goes with nothing to give up.
	s.table.Clear()
	items, rep := s.mgr.Recover(p)
	for _, it := range items {
		it.Hold()
		s.table.Put(it.HKey(), it)
	}
	if rep.MaxCAS > s.cas {
		s.cas = rep.MaxCAS
	}
	return rep
}

// Set stores a value, charging p the slab-allocation and cache-update
// stages. Returns StatusStored, StatusTooLarge, or StatusRecovering. The store
// keeps no expiry: expire is memcached's TTL argument, and anything but 0
// panics.
func (s *Store) Set(p *sim.Proc, key string, valueSize int, value any, flags uint32, expire uint32) protocol.Status {
	if expire != 0 {
		panic("store: Set with a TTL; the store keeps no expiry")
	}
	return s.SetIf(p, protocol.KeyOf(key), valueSize, value, flags, nil)
}

// SetIf is Set under a guard: the one form of "store unless something changed
// meanwhile". The allocation, an eviction it triggers and the copy all
// suspend, so whatever the caller checked before the call may no longer hold
// when the value is ready; guard (nil: always) is asked at the instant the
// table entry is swapped, and nothing suspends between its answer, the swap
// and the return — the caller's own bookkeeping, done right after, is part of
// the same instant. A refused value is released, the key is left exactly as
// it was, and the answer is StatusNotStored. Costs and the order of sleeps
// are Set's either way.
//
// The item comes off the manager's free list holding SetIf's hold, which the
// swap hands to the table entry; the entry it replaces gives the table's hold
// on the old item up (Item.Unhold).
func (s *Store) SetIf(p *sim.Proc, k protocol.Key, valueSize int, value any, flags uint32, guard func() bool) protocol.Status {
	s.SetOps++

	// Stage 1: slab allocation (may trigger hybrid eviction I/O).
	t0 := p.Now()
	p.Sleep(hashCost)
	it := s.mgr.NewItem()
	it.Key, it.Hash, it.Value, it.ValueSize, it.Flags = k.Str, k.Hash, value, valueSize, flags
	if err := s.mgr.Store(p, it); err != nil {
		it.Unhold()
		s.Prof.Add(metrics.StageSlabAlloc, p.Now()-t0)
		if errors.Is(err, hybridslab.ErrRecovering) {
			return protocol.StatusRecovering
		}
		return protocol.StatusTooLarge
	}
	s.Prof.Add(metrics.StageSlabAlloc, p.Now()-t0)

	// Stage 3: cache update — freshness of the table and recency list.
	// Read the table entry only now: the allocation above can suspend, and a
	// concurrent worker may have replaced the key meanwhile.
	t0 = p.Now()
	s.publishBegin(k)
	p.Sleep(updateCost)
	status := protocol.StatusStored
	if guard == nil || guard() {
		if old := s.item(k); old != nil {
			s.mgr.Release(old)
			old.Unhold()
		}
		s.cas++
		it.CAS = s.cas
		s.table.Put(k, it) // SetIf's hold is the table's from here
		s.publish(it)
	} else {
		s.mgr.Release(it)
		it.Unhold()
		s.republish(k)
		status = protocol.StatusNotStored
	}
	s.Prof.Add(metrics.StageCacheUpdate, p.Now()-t0)
	return status
}

// republish closes the mutation window publishBegin opened for a change that
// then did not happen: key's live item, if it has one, is what readers see.
func (s *Store) republish(k protocol.Key) {
	if cur := s.item(k); cur != nil {
		s.publish(cur)
	}
}

// Get fetches a value, charging p the cache-check-and-load and cache-update
// stages. A miss (never stored, or evicted-and-dropped) returns
// StatusNotFound; a failed load answers as loadFailed says.
func (s *Store) Get(p *sim.Proc, key string) (value any, size int, flags uint32, cas uint64, status protocol.Status) {
	return s.get(p, protocol.KeyOf(key))
}

func (s *Store) get(p *sim.Proc, k protocol.Key) (value any, size int, flags uint32, cas uint64, status protocol.Status) {
	s.GetOps++
	s.hot.Touch(k)

	// Stage 2: cache check and load (may read from SSD).
	t0 := p.Now()
	p.Sleep(hashCost)
	// Load can suspend (memcpy, SSD read), and a concurrent worker's Set of
	// this key releases it meanwhile: what Load returned — a nil value, or
	// ErrDropped — then describes the replaced item, not the key. Serve
	// whichever live item the table holds once a load of it comes back unreplaced.
	// The Get holds each item it loads until it is done with it, so one
	// released under it is not reused for another key meanwhile.
	for it := s.item(k); it != nil; it = s.item(k) {
		it.Hold()
		v, err := s.mgr.Load(p, it)
		if s.item(k) != it {
			it.Unhold()
			continue
		}
		s.Prof.Add(metrics.StageCacheLoad, p.Now()-t0)
		if err != nil {
			st := s.loadFailed(p, k, err)
			it.Unhold()
			switch st {
			case protocol.StatusCorrupt:
				s.CorruptReads++
			case protocol.StatusNotFound:
				s.GetMisses++
			}
			return nil, 0, 0, 0, st
		}

		// Stage 3: cache update — promote in the LRU.
		t0 = p.Now()
		p.Sleep(updateCost)
		s.mgr.Touch(it)
		s.Prof.Add(metrics.StageCacheUpdate, p.Now()-t0)
		s.GetHits++
		size, flags, cas := it.ValueSize, it.Flags, it.CAS
		it.Unhold()
		return v, size, flags, cas, protocol.StatusOK
	}
	// Never there, or removed under the load: nothing to tear down.
	s.Prof.Add(metrics.StageCacheLoad, p.Now()-t0)
	s.GetMisses++
	return nil, 0, 0, 0, protocol.StatusNotFound
}

// Delete removes a key.
func (s *Store) Delete(p *sim.Proc, key string) protocol.Status {
	return s.DeleteIf(p, protocol.KeyOf(key), nil)
}

// DeleteIf is Delete under a guard, asked as SetIf's is: after the probe's
// suspension, at the instant the entry is removed. Refused, the key is left
// as it was and the answer is StatusNotStored.
func (s *Store) DeleteIf(p *sim.Proc, k protocol.Key, guard func() bool) protocol.Status {
	s.DeleteOps++
	p.Sleep(hashCost)
	if guard != nil && !guard() {
		return protocol.StatusNotStored
	}
	it := s.item(k)
	if it == nil {
		return protocol.StatusNotFound
	}
	s.mgr.Release(it)
	it.Unhold()
	s.table.Delete(k)
	s.unpublish(k)
	return protocol.StatusDeleted
}

// Reply hands out an OpResponse for request reqID from the store's free list,
// holding its sender's hold: every answer the server sends — the store's,
// the replicator's and the server's own — is one. Sending it passes that hold
// to the message, released after the message's last delivery; each delivery
// holds it for its reader, who releases it once it has copied out what it
// keeps (protocol.NewReply).
func (s *Store) Reply(reqID uint64) *protocol.Response {
	return protocol.NewReply(&s.replies, reqID)
}

// Census tallies the store's pooled records at a drained quiesce (DESIGN
// §16): every reply is free, and every item free, retired by a cold restart,
// or held by exactly the holders a walk finds — its table entry, the
// manager's residency and, with a directory attached, its directory entry,
// whose published buckets and segments are tallied too. Wrong also names a
// walked item that is retired or not its key's table entry, and a table
// entry filed under a hash that is not its key's (protocol.Key: the carried
// hash is always FNV1a of the key; a probe by the real one finds nothing).
func (s *Store) Census() []pool.Tally {
	var items pool.Walk[hybridslab.Item, *hybridslab.Item]
	var wrong []string
	visit := func(it *hybridslab.Item) bool {
		items.Visit(it)
		switch {
		case it.Retired():
			wrong = append(wrong, it.String()+": retired by a cold restart, and still held")
		case s.item(it.HKey()) != it:
			wrong = append(wrong, it.String()+": held, and not its key's table entry")
		}
		return true
	}
	for k, it := range s.table.All() {
		if k.Hash != protocol.FNV1a(k.Str) || it.Hash != k.Hash {
			wrong = append(wrong, it.String()+": filed under a hash that is not its key's")
		}
		visit(it)
	}
	s.mgr.VisitLRU(math.MaxInt, visit)
	var dir []pool.Tally
	if d, ok := s.view.(*Directory); ok {
		dir = d.census(visit)
	}
	t := pool.Count("items", &s.mgr.Items, &items, s.mgr.Retired())
	t.Wrong = append(t.Wrong, wrong...)
	return append([]pool.Tally{pool.Count("replies", &s.replies, nil, 0), t}, dir...)
}

// Handle executes one parsed request against the store and builds the
// response. This is the storage phase shared by the sync and async server
// designs.
func (s *Store) Handle(p *sim.Proc, req *protocol.Request) *protocol.Response {
	resp := s.Reply(req.ReqID)
	k := req.HKey()
	switch req.Op {
	case protocol.OpSet:
		resp.Status = s.SetIf(p, k, req.ValueSize, req.Value, req.Flags, nil)
	case protocol.OpGet:
		v, size, flags, cas, st := s.get(p, k)
		resp.Status = st
		resp.Value = v
		resp.ValueSize = size
		resp.Flags = flags
		resp.CAS = cas
	case protocol.OpAdd:
		resp.Status = s.add(p, k, req.ValueSize, req.Value, req.Flags)
	case protocol.OpCAS:
		resp.Status = s.compareAndSet(p, k, req.ValueSize, req.Value, req.Flags, req.CAS)
	case protocol.OpIncr:
		v, st := s.increment(p, k, req.Delta)
		resp.Status = st
		if st == protocol.StatusOK {
			resp.Value = v
			resp.ValueSize = protocol.CounterSize
		}
	default:
		resp.Status = protocol.StatusError
	}
	return resp
}
