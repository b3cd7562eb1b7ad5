package replication

import (
	"fmt"
	"sort"

	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
)

// Dynamic membership
//
// A Membership is the shared, epoch-versioned membership state machine that
// turns the static ketama ring into a dynamic one. Exactly like the static
// ring it is a control-plane object shared by every server replicator and
// every client runtime (all parties agree on the epoch and both rings by
// construction); everything that moves data — segment manifests, key pulls,
// repair pushes — travels over the replicators' QP mesh and pays real
// fabric latency under fault injection.
//
// A transition (join, leave, decommission) bumps the epoch and swaps in a
// new current ring while keeping the previous ring alive for the duration
// of the migration. While both rings exist:
//
//   - Writes replicate to the UNION of the old and new replica sets, so an
//     acked write is durable under either ring no matter how it interleaves
//     with sealing. ReplicaSet returns that union, new-ring primary first.
//
//   - Reads on a server that is gaining a key (in the new set, not the old)
//     go through a double-read window: until the server seals the key's
//     segment it must confirm the key against the old owners before
//     answering, and answers retryable rather than fabricate a miss when it
//     cannot (see Replicator.executeGet).
//
//   - Every current member migrates the hash space segment by segment:
//     it asks each old owner for a manifest of the segment's keys it now
//     owns, pulls whatever it lacks, and seals the segment with SealFor.
//     When every current member has sealed every segment the transition
//     finalizes: the previous ring is dropped, joining nodes become active,
//     leaving nodes become dead, and subscribers (clients, the cluster)
//     are notified so they can invalidate bypass location caches, hot
//     sets, and per-server breaker state.
//
// Transitions are serialized: Begin* panics if a migration is in flight.
// "Concurrent rebalances" at the benchmark level are back-to-back epochs,
// each racing live traffic, kills, and recoveries.

// NodeState is one server's place in the membership lifecycle.
type NodeState int

const (
	// NodeActive serves and owns its ring range.
	NodeActive NodeState = iota
	// NodeJoining is on the current ring but still pulling its key range.
	NodeJoining
	// NodeLeaving was decommissioned: off the current ring but still a pull
	// source until the migration finalizes.
	NodeLeaving
	// NodeDead left the cluster (abrupt leave, or a finalized decommission).
	NodeDead
)

// Segments is the number of fixed hash-space segments ownership handoff is
// chunked into. Each (member, segment) pair seals independently, so the
// double-read window narrows as migration progresses instead of covering
// the whole key space until the end.
const Segments = 32

// SegmentOf maps a key to its migration segment.
func SegmentOf(k protocol.Key) int { return int(HashKey(k) % Segments) }

// Membership is the shared epoch-versioned view of the server fleet.
type Membership struct {
	env    *sim.Env
	factor int

	epoch  uint64
	cur    *Ring
	prev   *Ring // non-nil while a migration is in flight
	states map[int]NodeState

	sources []int                 // pull sources for the in-flight transition
	sealed  map[int][]bool        // current member -> per-segment seal bits
	open    int                   // unsealed (member, segment) pairs remaining
	done    map[uint64]*sim.Event // transition epoch -> finalize event

	subs []func(epoch uint64, final bool)

	// Transitions counts Begin* calls; bench snapshots read it.
	Transitions int
}

// NewMembership builds the bootstrap membership: every id active on the
// ring at epoch 1, no migration in flight.
func NewMembership(env *sim.Env, factor int, ids []int) *Membership {
	m := &Membership{
		env: env, factor: factor, epoch: 1,
		cur:    NewRing(),
		states: make(map[int]NodeState, len(ids)),
		done:   make(map[uint64]*sim.Event),
	}
	for _, id := range ids {
		m.cur.Add(id)
		m.states[id] = NodeActive
	}
	return m
}

// Epoch returns the current membership epoch. It bumps at every transition
// begin; clients stamp it into their bypass/hot-set state so a stale epoch
// is detectable on the wire (protocol.DirectoryInfo.MemberEpoch).
func (m *Membership) Epoch() uint64 { return m.epoch }

// Factor returns the replication factor the membership routes for.
func (m *Membership) Factor() int { return m.factor }

// Ring returns the current ring (the new ring during a migration).
func (m *Membership) Ring() *Ring { return m.cur }

// Migrating reports whether a transition is mid-migration.
func (m *Membership) Migrating() bool { return m.prev != nil }

// State returns id's lifecycle state (NodeDead for unknown ids).
func (m *Membership) State(id int) NodeState { return m.states[id] }

// Members returns the current ring's members, sorted ascending.
func (m *Membership) Members() []int { return m.cur.Members() }

// Sources returns the pull sources of the in-flight transition: the
// previous ring's members minus nodes already dead. Empty when stable.
func (m *Membership) Sources() []int { return m.sources }

// DoneOf returns the finalize event of the transition that began at epoch,
// or nil if no such transition was started.
func (m *Membership) DoneOf(epoch uint64) *sim.Event { return m.done[epoch] }

// Subscribe registers fn to run at every transition begin (final=false)
// and finalize (final=true). Callbacks run synchronously inside Begin* /
// SealFor in whatever proc context drove the transition, so they must not
// block.
func (m *Membership) Subscribe(fn func(epoch uint64, final bool)) {
	m.subs = append(m.subs, fn)
}

func (m *Membership) notify(final bool) {
	for _, fn := range m.subs {
		fn(m.epoch, final)
	}
}

// BeginJoin starts a join transition: id enters the current ring as
// NodeJoining and every current member re-seals the hash space. Returns the
// finalize event. Panics if a migration is already in flight — transitions
// are serialized by design.
func (m *Membership) BeginJoin(id int) *sim.Event {
	if m.prev != nil {
		panic("membership: transition already in flight")
	}
	if st, known := m.states[id]; known && st != NodeDead {
		panic(fmt.Sprintf("membership: server %d already a member", id))
	}
	next := m.cur.Clone()
	next.Add(id)
	m.states[id] = NodeJoining
	return m.begin(next)
}

// BeginLeave starts a leave transition: id drops off the current ring. A
// graceful leave (decommission) keeps id as a pull source until finalize;
// an abrupt leave marks it dead immediately, so migration re-replicates its
// range from the surviving replicas only. Returns the finalize event.
func (m *Membership) BeginLeave(id int, graceful bool) *sim.Event {
	if m.prev != nil {
		panic("membership: transition already in flight")
	}
	if st := m.states[id]; st != NodeActive {
		panic(fmt.Sprintf("membership: server %d not active (state %d)", id, st))
	}
	next := m.cur.Clone()
	next.Remove(id)
	if len(next.Members()) == 0 {
		panic("membership: cannot remove the last member")
	}
	if graceful {
		m.states[id] = NodeLeaving
		return m.begin(next)
	}
	m.states[id] = NodeDead
	return m.begin(next)
}

// begin swaps in the next ring, arms the seal bookkeeping, and notifies
// subscribers. The sources are the old ring's live members: never an abrupt
// leaver, which BeginLeave has marked dead.
func (m *Membership) begin(next *Ring) *sim.Event {
	m.prev, m.cur = m.cur, next
	m.epoch++
	m.Transitions++
	m.sources = m.sources[:0]
	for _, id := range m.prev.Members() {
		if m.states[id] != NodeDead {
			m.sources = append(m.sources, id)
		}
	}
	sort.Ints(m.sources)
	members := m.cur.Members()
	m.sealed = make(map[int][]bool, len(members))
	for _, id := range members {
		m.sealed[id] = make([]bool, Segments)
	}
	m.open = len(members) * Segments
	ev := m.env.NewEvent()
	m.done[m.epoch] = ev
	m.notify(false)
	return ev
}

// SealFor records that member id finished migrating segment seg of the
// transition begun at epoch. Sealing the last open (member, segment) pair
// finalizes the transition. Stale epochs are ignored.
func (m *Membership) SealFor(epoch uint64, id, seg int) {
	if m.prev == nil || epoch != m.epoch {
		return
	}
	bits := m.sealed[id]
	if bits == nil || bits[seg] {
		return
	}
	bits[seg] = true
	m.open--
	if m.open == 0 {
		m.finalize()
	}
}

// SealedFor reports whether member id has sealed seg in the in-flight
// transition. Outside a migration everything is sealed.
func (m *Membership) SealedFor(id, seg int) bool {
	if m.prev == nil {
		return true
	}
	bits := m.sealed[id]
	return bits != nil && bits[seg]
}

// finalize drops the previous ring and settles node states: joiners become
// active, leavers become dead. Subscribers are notified before the done
// event fires so client invalidation is visible to whoever awaited the
// transition.
func (m *Membership) finalize() {
	epoch := m.epoch
	m.prev = nil
	m.sources = m.sources[:0]
	m.sealed = nil
	for id, st := range m.states { // order-free: each node's state moves on its own
		switch st {
		case NodeJoining:
			m.states[id] = NodeActive
		case NodeLeaving:
			m.states[id] = NodeDead
		}
	}
	m.notify(true)
	if ev := m.done[epoch]; ev != nil && !ev.Fired() {
		ev.Fire()
	}
}

// ReplicaSet returns key's replica set under the current epoch: the new
// ring's set (primary first) extended, while migrating, with whatever the
// previous ring adds — so writes dual-apply and client failover can still
// reach an old owner holding the data mid-migration.
func (m *Membership) ReplicaSet(k protocol.Key, n int) []int {
	set := m.cur.Replicas(k, n)
	if m.prev == nil {
		return set
	}
	for _, id := range m.prev.Replicas(k, n) {
		if !containsID(set, id) {
			set = append(set, id) // the ring's set is full to capacity: this copies
		}
	}
	return set
}

// OldOwners returns key's replica set under the previous ring, minus dead
// nodes and minus self — the pull sources of a double-read. Nil when no
// migration is in flight.
func (m *Membership) OldOwners(k protocol.Key, self int) []int {
	if m.prev == nil {
		return nil
	}
	var out []int
	for _, id := range m.prev.Replicas(k, m.factor) {
		if id != self && m.states[id] != NodeDead {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// NeedsDoubleRead reports whether server id, asked for key, is inside the
// double-read window: a migration is in flight, id has not sealed the
// key's segment, and id is gaining the key (in the new replica set but not
// the old one, so its local miss proves nothing).
func (m *Membership) NeedsDoubleRead(id int, k protocol.Key) bool {
	if m.prev == nil || m.SealedFor(id, SegmentOf(k)) {
		return false
	}
	return containsID(m.cur.Replicas(k, m.factor), id) &&
		!containsID(m.prev.Replicas(k, m.factor), id)
}

func containsID(set []int, id int) bool {
	for _, have := range set {
		if have == id {
			return true
		}
	}
	return false
}
