// Package store implements the Memcached item store: the hash table and
// item lifecycle (CAS, flags, lazy expiration) on top of the hybrid slab
// manager, instrumented with the paper's per-stage profiler (Section III-A):
// slab allocation, cache check and load, and cache update are measured here;
// server response, client wait and miss penalty are measured by the server
// engine and client runtime.
package store

import (
	"errors"
	"sort"

	"hybridkv/internal/hybridslab"
	"hybridkv/internal/metrics"
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
	PublishBegin(key string)
	Publish(it *hybridslab.Item)
	Unpublish(key string)
	EvictionUpdate(it *hybridslab.Item, ev hybridslab.NotifyEvent)
}

// Store is one server's key-value state.
type Store struct {
	env   *sim.Env
	mgr   *hybridslab.Manager
	table map[string]*hybridslab.Item
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
	Prof *metrics.Breakdown

	crawlerStop *sim.Event

	// corruptNotify, when set, fires on every foreground read that failed
	// integrity verification (the key is already gone locally). The server
	// wires it to the replicator so a corrupt read opens a repair-pull
	// even when the client never retries the key.
	corruptNotify func(p *sim.Proc, key string)

	// Stats
	SetOps, GetOps, DeleteOps int64
	GetHits, GetMisses        int64
	Expired                   int64
	CrawlerReclaimed          int64
	Flushes                   int64
	// CorruptReads counts foreground reads answered StatusCorrupt: the
	// on-SSD copy failed verification and was quarantined.
	CorruptReads int64
}

// SetCorruptNotify installs the corrupt-read callback (replication repair
// hook). Call before the simulation runs.
func (s *Store) SetCorruptNotify(fn func(p *sim.Proc, key string)) { s.corruptNotify = fn }

// New creates a store over the given slab manager.
func New(env *sim.Env, mgr *hybridslab.Manager) *Store {
	return &Store{
		env:   env,
		mgr:   mgr,
		table: make(map[string]*hybridslab.Item),
		hot:   newHotSketch(hotSketchCap),
		Prof:  metrics.NewBreakdown(),
	}
}

// Manager returns the underlying hybrid slab manager.
func (s *Store) Manager() *hybridslab.Manager { return s.mgr }

// EvacuateQuarantined drains quarantined SSD regions: verified-clean slots
// move to fresh media, slots that fail re-verification are retired here —
// table entry dropped, read view unpublished, and the corrupt-read callback
// fired so replication opens a repair-pull — exactly the foreground
// corrupt-read teardown, driven by the scrub pass instead of a client.
func (s *Store) EvacuateQuarantined(p *sim.Proc) (moved, dropped int) {
	moved, corrupt := s.mgr.EvacuateQuarantined(p)
	for _, it := range corrupt {
		// The read may have suspended; only tear down a table entry the
		// retired item still owns (a concurrent Set installs a new one).
		if s.table[it.Key] != it {
			continue
		}
		delete(s.table, it.Key)
		s.unpublish(it.Key)
		dropped++
		if s.corruptNotify != nil {
			s.corruptNotify(p, it.Key)
		}
	}
	return moved, dropped
}

// SetReadView installs the read-side publication view and subscribes it to
// the slab manager's eviction lifecycle.
func (s *Store) SetReadView(v ReadView) {
	s.view = v
	s.mgr.SetNotify(v.EvictionUpdate)
}

func (s *Store) publishBegin(key string) {
	if s.view != nil {
		s.view.PublishBegin(key)
	}
}

func (s *Store) publish(it *hybridslab.Item) {
	if s.view != nil {
		s.view.Publish(it)
	}
}

func (s *Store) unpublish(key string) {
	if s.view != nil {
		s.view.Unpublish(key)
	}
}

// PublishAll (re)publishes every live key into the read view, in sorted
// order for determinism. The server calls it after a restart repopulates or
// revalidates the table, undoing the crash-time Quiesce.
func (s *Store) PublishAll() {
	if s.view == nil {
		return
	}
	for _, key := range s.Keys() {
		s.publish(s.table[key])
	}
}

// Stats is a point-in-time server statistics snapshot (the memcached
// "stats" command).
type Stats struct {
	Items            int
	RAMItems         int
	SSDItems         int
	SetOps           int64
	GetOps           int64
	DeleteOps        int64
	GetHits          int64
	GetMisses        int64
	Expired          int64
	CrawlerReclaimed int64
	SlabMemUsed      int64
	SSDUsed          int64
	FlushPages       int64
	DropEvictions    int64
	CorruptReads     int64
	QuarantinedPages int64
}

// Stats snapshots the server state.
func (s *Store) Stats() Stats {
	return Stats{
		Items:            len(s.table),
		RAMItems:         s.mgr.RAMItems(),
		SSDItems:         s.mgr.SSDItems(),
		SetOps:           s.SetOps,
		GetOps:           s.GetOps,
		DeleteOps:        s.DeleteOps,
		GetHits:          s.GetHits,
		GetMisses:        s.GetMisses,
		Expired:          s.Expired,
		CrawlerReclaimed: s.CrawlerReclaimed,
		SlabMemUsed:      s.mgr.Allocator().MemUsed(),
		SSDUsed:          s.mgr.SSDUsed(),
		FlushPages:       s.mgr.FlushPages,
		DropEvictions:    s.mgr.DropEvictions,
		CorruptReads:     s.CorruptReads,
		QuarantinedPages: s.mgr.QuarantinedPages,
	}
}

// Len returns the number of live keys.
func (s *Store) Len() int { return len(s.table) }

// Keys returns the live key set in sorted order. Replication uses it to
// mark recovered keys suspect after a cold restart; sorting keeps the
// simulation deterministic (map iteration order is random per run).
func (s *Store) Keys() []string {
	keys := make([]string, 0, len(s.table))
	for key := range s.table {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	return keys
}

// ReadItem fetches key's current value and metadata without touching
// statistics, expiry, or LRU state. The replication repair path uses it to
// build push frames for values that may reside on SSD, and the bench
// verification oracle uses it to audit post-run state; neither should
// perturb cache behavior. Returns ok=false on a miss or when the value is
// unreadable (dropped by eviction, or the store is recovering).
func (s *Store) ReadItem(p *sim.Proc, key string) (value any, size int, flags uint32, expireAt sim.Time, ok bool) {
	it := s.table[key]
	if it == nil {
		return nil, 0, 0, 0, false
	}
	if it.ExpireAt != 0 && s.env.Now() >= it.ExpireAt {
		return nil, 0, 0, 0, false
	}
	v, err := s.mgr.Load(p, it)
	if err != nil {
		return nil, 0, 0, 0, false
	}
	return v, it.ValueSize, it.Flags, it.ExpireAt, true
}

// RecoverCold rebuilds the store from the SSD after a cold restart: the hash
// table is rebuilt from scratch out of the manager's recovery scan, and the
// CAS counter resumes above the highest recovered token so post-recovery
// stores never reuse a pre-crash CAS value.
func (s *Store) RecoverCold(p *sim.Proc) hybridslab.RecoveryReport {
	s.table = make(map[string]*hybridslab.Item)
	items, rep := s.mgr.Recover(p)
	for _, it := range items {
		s.table[it.Key] = it
	}
	if rep.MaxCAS > s.cas {
		s.cas = rep.MaxCAS
	}
	return rep
}

// Set stores a value, charging p the slab-allocation and cache-update
// stages. Returns StatusStored, StatusTooLarge, or StatusRecovering.
func (s *Store) Set(p *sim.Proc, key string, valueSize int, value any, flags uint32, expire uint32) protocol.Status {
	return s.SetIf(p, key, valueSize, value, flags, expire, nil)
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
func (s *Store) SetIf(p *sim.Proc, key string, valueSize int, value any, flags uint32, expire uint32, guard func() bool) protocol.Status {
	s.SetOps++

	// Stage 1: slab allocation (may trigger hybrid eviction I/O).
	t0 := p.Now()
	p.Sleep(hashCost)
	it := &hybridslab.Item{
		Key:       key,
		Value:     value,
		ValueSize: valueSize,
		Flags:     flags,
	}
	if expire > 0 {
		it.ExpireAt = s.env.Now() + sim.Time(expire)*sim.Second
	}
	if err := s.mgr.Store(p, it); err != nil {
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
	s.publishBegin(key)
	p.Sleep(updateCost)
	status := protocol.StatusStored
	if guard == nil || guard() {
		if old := s.table[key]; old != nil {
			s.mgr.Release(old)
		}
		s.cas++
		it.CAS = s.cas
		s.table[key] = it
		s.publish(it)
	} else {
		s.mgr.Release(it)
		s.republish(key)
		status = protocol.StatusNotStored
	}
	s.Prof.Add(metrics.StageCacheUpdate, p.Now()-t0)
	return status
}

// republish closes the mutation window publishBegin opened for a change that
// then did not happen: key's live item, if it has one, is what readers see.
func (s *Store) republish(key string) {
	if cur := s.table[key]; cur != nil {
		s.publish(cur)
	}
}

// Get fetches a value, charging p the cache-check-and-load and cache-update
// stages. A miss (never stored, evicted-and-dropped, or expired) returns
// StatusNotFound.
func (s *Store) Get(p *sim.Proc, key string) (value any, size int, flags uint32, cas uint64, status protocol.Status) {
	s.GetOps++
	s.hot.Touch(key)

	// Stage 2: cache check and load (may read from SSD).
	t0 := p.Now()
	p.Sleep(hashCost)
	it := s.table[key]
	if it == nil {
		s.Prof.Add(metrics.StageCacheLoad, p.Now()-t0)
		s.GetMisses++
		return nil, 0, 0, 0, protocol.StatusNotFound
	}
	if it.ExpireAt != 0 && s.env.Now() >= it.ExpireAt {
		s.mgr.Release(it)
		delete(s.table, key)
		s.unpublish(key)
		s.Expired++
		s.Prof.Add(metrics.StageCacheLoad, p.Now()-t0)
		s.GetMisses++
		return nil, 0, 0, 0, protocol.StatusNotFound
	}
	v, err := s.mgr.Load(p, it)
	// Load can suspend (memcpy, SSD read), and a concurrent worker's Set of
	// this key releases it meanwhile: what Load returned — a nil value, or
	// ErrDropped — then describes the replaced item, not the key. Serve
	// whichever item the table holds once a load of it comes back unreplaced.
	for s.table[key] != it {
		if it = s.table[key]; it == nil {
			// Deleted (or expired) under us: a plain miss, nothing to tear down.
			s.Prof.Add(metrics.StageCacheLoad, p.Now()-t0)
			s.GetMisses++
			return nil, 0, 0, 0, protocol.StatusNotFound
		}
		v, err = s.mgr.Load(p, it)
	}
	s.Prof.Add(metrics.StageCacheLoad, p.Now()-t0)
	if err != nil {
		if errors.Is(err, hybridslab.ErrRecovering) {
			// Transient rejection, not a dead key: the item may well be
			// recovered — keep the table entry and fail the request fast.
			return nil, 0, 0, 0, protocol.StatusRecovering
		}
		if errors.Is(err, hybridslab.ErrCorrupt) {
			// The on-SSD copy failed integrity verification: the item is
			// quarantined, not legally evicted. Drop the dead table entry
			// but answer StatusCorrupt — distinct from a miss — so the
			// replication layer can repair-pull the key from its peers
			// instead of letting the client see a false miss.
			delete(s.table, key)
			s.unpublish(key)
			s.CorruptReads++
			if s.corruptNotify != nil {
				s.corruptNotify(p, key)
			}
			return nil, 0, 0, 0, protocol.StatusCorrupt
		}
		// Value dropped by eviction: the key is dead.
		delete(s.table, key)
		s.unpublish(key)
		s.GetMisses++
		return nil, 0, 0, 0, protocol.StatusNotFound
	}

	// Stage 3: cache update — promote in the LRU.
	t0 = p.Now()
	p.Sleep(updateCost)
	s.mgr.Touch(it)
	s.Prof.Add(metrics.StageCacheUpdate, p.Now()-t0)
	s.GetHits++
	return v, it.ValueSize, it.Flags, it.CAS, protocol.StatusOK
}

// Delete removes a key.
func (s *Store) Delete(p *sim.Proc, key string) protocol.Status {
	return s.DeleteIf(p, key, nil)
}

// DeleteIf is Delete under a guard, asked as SetIf's is: after the probe's
// suspension, at the instant the entry is removed. Refused, the key is left
// as it was and the answer is StatusNotStored.
func (s *Store) DeleteIf(p *sim.Proc, key string, guard func() bool) protocol.Status {
	s.DeleteOps++
	p.Sleep(hashCost)
	if guard != nil && !guard() {
		return protocol.StatusNotStored
	}
	it := s.table[key]
	if it == nil {
		return protocol.StatusNotFound
	}
	s.mgr.Release(it)
	delete(s.table, key)
	s.unpublish(key)
	return protocol.StatusDeleted
}

// Handle executes one parsed request against the store and builds the
// response. This is the storage phase shared by the sync and async server
// designs.
func (s *Store) Handle(p *sim.Proc, req *protocol.Request) *protocol.Response {
	resp := &protocol.Response{Op: protocol.OpResponse, ReqID: req.ReqID}
	switch req.Op {
	case protocol.OpSet:
		resp.Status = s.Set(p, req.Key, req.ValueSize, req.Value, req.Flags, req.Expire)
	case protocol.OpGet:
		v, size, flags, cas, st := s.Get(p, req.Key)
		resp.Status = st
		resp.Value = v
		resp.ValueSize = size
		resp.Flags = flags
		resp.CAS = cas
	case protocol.OpDelete:
		resp.Status = s.Delete(p, req.Key)
	case protocol.OpAdd:
		resp.Status = s.Add(p, req.Key, req.ValueSize, req.Value, req.Flags, req.Expire)
	case protocol.OpReplace:
		resp.Status = s.Replace(p, req.Key, req.ValueSize, req.Value, req.Flags, req.Expire)
	case protocol.OpCAS:
		resp.Status = s.CompareAndSet(p, req.Key, req.ValueSize, req.Value, req.Flags, req.Expire, req.CAS)
	case protocol.OpAppend:
		resp.Status = s.Append(p, req.Key, req.ValueSize, req.Value)
	case protocol.OpPrepend:
		resp.Status = s.Prepend(p, req.Key, req.ValueSize, req.Value)
	case protocol.OpIncr:
		v, st := s.Incr(p, req.Key, req.Delta)
		resp.Status = st
		if st == protocol.StatusOK {
			resp.Value = v
			resp.ValueSize = counterSize
		}
	case protocol.OpDecr:
		v, st := s.Decr(p, req.Key, req.Delta)
		resp.Status = st
		if st == protocol.StatusOK {
			resp.Value = v
			resp.ValueSize = counterSize
		}
	case protocol.OpTouch:
		resp.Status = s.Touch(p, req.Key, req.Expire)
	case protocol.OpFlushAll:
		resp.Status = s.FlushAll(p)
	default:
		resp.Status = protocol.StatusError
	}
	return resp
}
