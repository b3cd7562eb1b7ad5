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
	Prof metrics.Breakdown

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
	}
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
		// The read may have suspended; only tear down a table entry the
		// retired item still owns (a concurrent Set installs a new one).
		if s.table[it.Key] != it {
			continue
		}
		s.loadFailed(p, it.Key, hybridslab.ErrCorrupt)
	}
}

// loadFailed is the one rule for a failed load of key's item: it tears down
// what err killed and returns the answer. ErrRecovering is transient — the
// item may well be recovered — so the entry stays: StatusRecovering. Anything
// else drops the entry and unpublishes it. ErrCorrupt (the SSD copy failed
// verification: quarantined, not legally evicted) fires the corrupt hook, so
// replication opens a repair-pull, and answers StatusCorrupt; the rest (the
// value dropped by eviction) is a miss.
func (s *Store) loadFailed(p *sim.Proc, key string, err error) protocol.Status {
	if errors.Is(err, hybridslab.ErrRecovering) {
		return protocol.StatusRecovering
	}
	delete(s.table, key)
	s.unpublish(key)
	if !errors.Is(err, hybridslab.ErrCorrupt) {
		return protocol.StatusNotFound
	}
	if s.corruptNotify != nil {
		s.corruptNotify(p, key)
	}
	return protocol.StatusCorrupt
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
	if expired(it, s.env.Now()) {
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

// Set stores a value that expires expire seconds from now (0: never),
// charging p the slab-allocation and cache-update stages. Returns
// StatusStored, StatusTooLarge, or StatusRecovering.
func (s *Store) Set(p *sim.Proc, key string, valueSize int, value any, flags uint32, expire uint32) protocol.Status {
	return s.SetIf(p, key, valueSize, value, flags, ExpireAt(s.env.Now(), expire), nil)
}

// ExpireAt is the instant a TTL of expire seconds given at now runs out (0:
// never). A TTL is relative only where a request enters — the wire, the
// command API, a replication round's start; below that every layer carries
// the instant, so a rewrite, a forward or a repair push keeps it as it is.
func ExpireAt(now sim.Time, expire uint32) sim.Time {
	if expire == 0 {
		return 0
	}
	return now + sim.Time(expire)*sim.Second
}

// expired is the one expiry rule: an item is dead from its expiry instant on.
func expired(it *hybridslab.Item, now sim.Time) bool {
	return it.ExpireAt != 0 && now >= it.ExpireAt
}

// SetIf is Set under a guard: the one form of "store unless something changed
// meanwhile". The allocation, an eviction it triggers and the copy all
// suspend, so whatever the caller checked before the call may no longer hold
// when the value is ready; guard (nil: always) is asked at the instant the
// table entry is swapped, and nothing suspends between its answer, the swap
// and the return — the caller's own bookkeeping, done right after, is part of
// the same instant. A refused value is released, the key is left exactly as
// it was, and the answer is StatusNotStored. Costs and the order of sleeps
// are Set's either way. expireAt is the value's expiry instant (0: never).
func (s *Store) SetIf(p *sim.Proc, key string, valueSize int, value any, flags uint32, expireAt sim.Time, guard func() bool) protocol.Status {
	s.SetOps++

	// Stage 1: slab allocation (may trigger hybrid eviction I/O).
	t0 := p.Now()
	p.Sleep(hashCost)
	it := &hybridslab.Item{
		Key:       key,
		Value:     value,
		ValueSize: valueSize,
		Flags:     flags,
		ExpireAt:  expireAt,
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
// StatusNotFound; a failed load answers as loadFailed says.
func (s *Store) Get(p *sim.Proc, key string) (value any, size int, flags uint32, cas uint64, status protocol.Status) {
	s.GetOps++
	s.hot.Touch(key)

	// Stage 2: cache check and load (may read from SSD).
	t0 := p.Now()
	p.Sleep(hashCost)
	// Load can suspend (memcpy, SSD read), and a concurrent worker's Set of
	// this key releases it meanwhile: what Load returned — a nil value, or
	// ErrDropped — then describes the replaced item, not the key. Serve
	// whichever live item the table holds once a load of it comes back unreplaced.
	for it := s.lookup(p, key); it != nil; it = s.lookup(p, key) {
		v, err := s.mgr.Load(p, it)
		if s.table[key] != it {
			continue
		}
		s.Prof.Add(metrics.StageCacheLoad, p.Now()-t0)
		if err != nil {
			st := s.loadFailed(p, key, err)
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
		return v, it.ValueSize, it.Flags, it.CAS, protocol.StatusOK
	}
	// Never there, expired, or deleted under the load: nothing to tear down.
	s.Prof.Add(metrics.StageCacheLoad, p.Now()-t0)
	s.GetMisses++
	return nil, 0, 0, 0, protocol.StatusNotFound
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
