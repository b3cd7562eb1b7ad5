// Package fault provides deterministic fault injection for the simulated
// cluster: probabilistic message drop / duplication / latency spikes on the
// fabric, scheduled link-down windows per node, and sustained slow windows
// (bandwidth brown-outs) per node. An Injector plugs into simnet.Fabric via
// SetFaults; every probabilistic decision comes from a seeded RNG consulted
// in delivery order, and every window is a fixed [From, To) schedule, so
// faulted runs are exactly as reproducible as fault-free ones.
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
	// use AddSlow, which schedules a SlowWindow instead.
	Spike float64
}

// spikeDelay is the extra latency of a spiked message.
const spikeDelay = 100 * sim.Microsecond

// Window is one link-down interval for a node: messages to or from the node
// in [From, To) are dropped.
type Window struct {
	Node     string
	From, To sim.Time
}

// DirWindow is one asymmetric (one-directional) partition: messages from Src
// to Dst in [From, To) are dropped, while the reverse direction keeps
// flowing. This models the classic half-open failure — a dead transmit path
// with a live receive path — that symmetric link-down windows cannot
// express, and that replication ack/retry logic must survive.
type DirWindow struct {
	Src, Dst string
	From, To sim.Time
}

// SlowWindow is one sustained link-degradation interval for a node: every
// message to or from the node in [From, To) is delayed by Floor plus
// PerKB-scaled serialization drag beyond normal propagation. Unlike a
// Spike — a one-shot random event on a single message — a slow window is
// the gray failure itself: the link stays up, every message still arrives,
// and only latency (fixed floor plus a bandwidth-shaped size term) tells
// the story. No RNG is consulted, so replays are exact.
type SlowWindow struct {
	Node     string
	From, To sim.Time
	// Floor is the fixed extra latency added to every affected message.
	Floor sim.Time
	// PerKB adds delay proportional to message size (per KiB), modeling a
	// degraded effective link bandwidth rather than a fixed stall.
	PerKB sim.Time
}

// Injector implements simnet.FaultInjector with seeded randomness.
type Injector struct {
	cfg         Config
	rng         *rand.Rand
	windows     []Window
	dirWindows  []DirWindow
	slowWindows []SlowWindow

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
	in.windows = append(in.windows, Window{Node: node, From: from, To: to})
}

// AddPartition schedules an asymmetric partition: messages from src to dst
// in [from, to) are dropped; dst→src traffic is unaffected. Call twice with
// the arguments swapped for a symmetric partition between two nodes.
func (in *Injector) AddPartition(src, dst string, from, to sim.Time) {
	in.dirWindows = append(in.dirWindows, DirWindow{Src: src, Dst: dst, From: from, To: to})
}

// AddSlow schedules a sustained slow window for node: every message to or
// from it in [from, to) is delayed by floor plus perKB for each KiB of
// message size. Deterministic — no RNG draw — so the same schedule replays
// to the same virtual-time trace.
func (in *Injector) AddSlow(node string, from, to sim.Time, floor, perKB sim.Time) {
	in.slowWindows = append(in.slowWindows, SlowWindow{
		Node: node, From: from, To: to, Floor: floor, PerKB: perKB,
	})
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

// slowDelay returns the extra latency slow windows impose on a message of
// the given size between src and dst at time at. Overlapping windows (both
// endpoints limping, or stacked schedules) take the worst single window
// rather than summing, so a symmetric schedule does not double-charge.
func (in *Injector) slowDelay(src, dst string, size int, at sim.Time) sim.Time {
	var d sim.Time
	for _, w := range in.slowWindows {
		if w.Node != src && w.Node != dst {
			continue
		}
		if at < w.From || at >= w.To {
			continue
		}
		e := w.Floor + w.PerKB*sim.Time(size)/1024
		if e > d {
			d = e
		}
	}
	return d
}

// Partitioned reports whether the src→dst direction is cut at time at.
func (in *Injector) Partitioned(src, dst string, at sim.Time) bool {
	for _, w := range in.dirWindows {
		if w.Src == src && w.Dst == dst && at >= w.From && at < w.To {
			return true
		}
	}
	return false
}

// LinkDown reports whether node's link is down at time at.
func (in *Injector) LinkDown(node string, at sim.Time) bool {
	for _, w := range in.windows {
		if w.Node == node && at >= w.From && at < w.To {
			return true
		}
	}
	return false
}

// Active reports whether the injector can affect any message at all. An
// inactive injector never consults its RNG, so installing one with a zero
// Config leaves the simulation bit-identical to having none.
func (in *Injector) Active() bool {
	return in.cfg.Drop > 0 || in.cfg.Dup > 0 || in.cfg.Spike > 0 ||
		in.corruptRate > 0 ||
		len(in.windows) > 0 || len(in.dirWindows) > 0 || len(in.slowWindows) > 0
}

// Transmit decides the fate of one message at serialization end.
func (in *Injector) Transmit(src, dst string, size int, now sim.Time) simnet.Verdict {
	var v simnet.Verdict
	if !in.Active() {
		return v
	}
	if in.LinkDown(src, now) || in.LinkDown(dst, now) {
		in.LinkDrops++
		v.Drop = true
		return v
	}
	if in.Partitioned(src, dst, now) {
		in.PartitionDrops++
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
	if d := in.slowDelay(src, dst, size, now); d > 0 {
		in.Slowed++
		v.ExtraDelay += d
	}
	// Corruption is decided last and by hash, not RNG: the draws above are
	// identical whether or not corruption is armed.
	if in.corruptRate > 0 {
		h := corruptHash(in.corruptSeed, src, dst, size, now)
		if float64(h>>11)/float64(1<<53) < in.corruptRate {
			in.Corrupts++
			v.Corrupt = true
		}
	}
	return v
}
