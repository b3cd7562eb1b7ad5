// Package fault provides deterministic fault injection for the simulated
// cluster: probabilistic message drop / duplication / latency spikes and
// hash-seeded in-flight corruption on the fabric, and scheduled windows —
// link-down per node, one-directional partitions, and sustained slow windows
// (bandwidth brown-outs) per node. An Injector plugs into simnet.Fabric via
// SetFaults. Every probabilistic decision comes from a seeded RNG consulted
// in delivery order, and every window is a sim.Window on one rule list,
// scanned once per message before any draw, so faulted runs are exactly as
// reproducible as fault-free ones.
//
// Server outages live in internal/server (Server.Outage) and SSD I/O error
// injection in internal/blockdev (SetFaults); this package covers the
// interconnect.
package fault

import (
	"math/rand"

	"hybridkv/internal/protocol"
	"hybridkv/internal/sim"
	"hybridkv/internal/simnet"
)

// Config sets the per-message fault probabilities.
type Config struct {
	// Seed drives the injector's RNG; equal seeds give equal fault
	// sequences under the deterministic kernel.
	Seed int64
	// Drop is the probability a message is lost after serialization (the
	// sender cannot tell; its Sent event still fires).
	Drop float64
	// Dup is the probability a message is delivered twice.
	Dup float64
	// Spike is the probability a message is delayed by spikeDelay beyond
	// normal propagation. A spike is a one-shot, per-message event; it
	// cannot model a link that stays degraded. For sustained degradation
	// use AddSlow, which schedules a slow window instead.
	Spike float64
}

// spikeDelay is the extra latency of a spiked message.
const spikeDelay = 100 * sim.Microsecond

// ruleKind is what a scheduled window does to the messages it matches.
type ruleKind uint8

const (
	linkDown  ruleKind = iota // drop every message to or from node
	partition                 // drop every message from node to dst
	slow                      // delay every message to or from node by floor + perKB per KiB
)

// rule is one scheduled window of the injector. No RNG is consulted, so
// replays are exact.
type rule struct {
	sim.Window
	kind         ruleKind
	node, dst    string
	floor, perKB sim.Time
}

// Injector implements simnet.FaultInjector with seeded randomness.
type Injector struct {
	cfg   Config
	rng   *rand.Rand
	rules []rule // the scheduled windows, every kind, in the order added

	// In-flight corruption (AddCorrupt): decided by a pure hash of the
	// message coordinates, never the RNG stream, so arming it leaves every
	// other draw — and therefore the rest of the run — bit-identical.
	corruptSeed uint64
	corruptRate float64

	// Stats
	Drops          int64 // random drops
	Dups           int64
	Spikes         int64
	LinkDrops      int64 // drops due to a link-down window
	PartitionDrops int64 // drops due to an asymmetric partition window
	Slowed         int64 // messages delayed by a slow window
	Corrupts       int64 // payloads delivered bit-flipped
}

// New returns an injector for cfg.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// AddLinkDown schedules a link-down window for node: traffic to or from it
// in [from, to) is dropped.
func (in *Injector) AddLinkDown(node string, from, to sim.Time) {
	in.rules = append(in.rules, rule{Window: sim.Window{From: from, To: to}, kind: linkDown, node: node})
}

// AddPartition schedules an asymmetric partition: messages from src to dst
// in [from, to) are dropped; dst→src traffic is unaffected. This is the
// half-open failure — a dead transmit path with a live receive path — that
// replication ack/retry logic must survive. Call twice with the arguments
// swapped for a symmetric partition between two nodes.
func (in *Injector) AddPartition(src, dst string, from, to sim.Time) {
	in.rules = append(in.rules, rule{Window: sim.Window{From: from, To: to}, kind: partition, node: src, dst: dst})
}

// AddSlow schedules a sustained slow window for node: every message to or
// from it in [from, to) is delayed by floor plus perKB for each KiB of
// message size. Unlike a Spike — a one-shot random event on a single
// message — a slow window is the gray failure itself: the link stays up,
// every message still arrives, and only latency tells the story.
func (in *Injector) AddSlow(node string, from, to sim.Time, floor, perKB sim.Time) {
	in.rules = append(in.rules, rule{Window: sim.Window{From: from, To: to}, kind: slow, node: node, floor: floor, perKB: perKB})
}

// AddCorrupt arms seeded in-flight payload corruption: each message is
// garbled with probability rate, decided by a pure hash of (seed, src, dst,
// size, now) rather than the injector's RNG. Zero extra RNG draws means a
// run with corruption armed replays every drop/dup/spike decision of the
// same-seed run without it — the fault is additive, never entangling.
func (in *Injector) AddCorrupt(seed int64, rate float64) {
	in.corruptSeed = uint64(seed)
	in.corruptRate = rate
}

// corruptHash mixes the message coordinates with the corruption seed via a
// splitmix64-style finalizer. Stateless: the same message at the same time
// always gets the same verdict, and a retransmit at a different virtual time
// re-rolls — which is what lets sum-checked receivers converge on resend.
func corruptHash(seed uint64, src, dst string, size int, now sim.Time) uint64 {
	x := seed ^ 0x9e3779b97f4a7c15
	for _, s := range []string{src, dst} {
		for i := 0; i < len(s); i++ {
			x = (x ^ uint64(s[i])) * 1099511628211
		}
		x ^= 0xff
	}
	x ^= uint64(size) * 0xbf58476d1ce4e5b9
	x ^= uint64(now) * 0x94d049bb133111eb
	return protocol.Mix64(x)
}

// Active reports whether the injector can affect any message at all. An
// inactive injector never consults its RNG, so installing one with a zero
// Config leaves the simulation bit-identical to having none.
func (in *Injector) Active() bool {
	return in.cfg.Drop > 0 || in.cfg.Dup > 0 || in.cfg.Spike > 0 ||
		in.corruptRate > 0 || len(in.rules) > 0
}

// Transmit decides the fate of one message at serialization end. The
// schedule is scanned once, before any RNG draw: a scheduled drop consumes
// none, and a link-down drop counts before a partition drop. A message pays
// the worst single slow window, not the sum, so a symmetric schedule does
// not double-charge. Corruption is decided last.
func (in *Injector) Transmit(src, dst string, size int, now sim.Time) simnet.Verdict {
	var v simnet.Verdict
	if !in.Active() {
		return v
	}
	var down, cut bool
	var slowBy sim.Time
	for i := range in.rules {
		r := &in.rules[i]
		if !r.Covers(now) {
			continue
		}
		switch r.kind {
		case linkDown:
			down = down || r.node == src || r.node == dst
		case partition:
			cut = cut || r.node == src && r.dst == dst
		case slow:
			if r.node == src || r.node == dst {
				slowBy = max(slowBy, r.floor+r.perKB*sim.Time(size)/1024)
			}
		}
	}
	if down || cut {
		if down {
			in.LinkDrops++
		} else {
			in.PartitionDrops++
		}
		v.Drop = true
		return v
	}
	if in.cfg.Drop > 0 && in.rng.Float64() < in.cfg.Drop {
		in.Drops++
		v.Drop = true
		return v
	}
	if in.cfg.Dup > 0 && in.rng.Float64() < in.cfg.Dup {
		in.Dups++
		v.Duplicate = true
	}
	if in.cfg.Spike > 0 && in.rng.Float64() < in.cfg.Spike {
		in.Spikes++
		v.ExtraDelay = spikeDelay
	}
	if slowBy > 0 {
		in.Slowed++
		v.ExtraDelay += slowBy
	}
	// Corruption is decided by hash, not RNG: the draws above are identical
	// whether or not corruption is armed.
	if in.corruptRate > 0 && protocol.Chance(corruptHash(in.corruptSeed, src, dst, size, now)) < in.corruptRate {
		in.Corrupts++
		v.Corrupt = true
	}
	return v
}
