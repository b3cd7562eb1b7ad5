// Package metrics provides the measurement plumbing for the experiment
// harness: latency histograms over virtual time, the paper's six-stage
// time-wise breakdown accumulators (Figures 2 and 6), the counter registry
// the client runtime and the replicators count in, and throughput / overlap
// helpers.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"hybridkv/internal/sim"
)

// Hist is a latency histogram with logarithmic buckets (~4% resolution),
// good from 1 ns to ~100 s of virtual time.
type Hist struct {
	buckets []int64
	count   int64
	sum     sim.Time
	max     sim.Time
}

const histBucketsPerOctave = 16

// NewHist returns an empty histogram.
func NewHist() *Hist {
	return &Hist{}
}

func bucketOf(d sim.Time) int {
	if d < 1 {
		d = 1
	}
	return int(math.Log2(float64(d)) * histBucketsPerOctave)
}

func bucketValue(idx int) sim.Time {
	return sim.Time(math.Exp2(float64(idx) / histBucketsPerOctave))
}

// Add records one sample.
func (h *Hist) Add(d sim.Time) {
	idx := bucketOf(d)
	if idx >= len(h.buckets) {
		nb := make([]int64, idx+1)
		copy(nb, h.buckets)
		h.buckets = nb
	}
	h.buckets[idx]++
	h.count++
	h.sum += d
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of samples.
func (h *Hist) Count() int64 { return h.count }

// Mean returns the average sample, or 0 when empty.
func (h *Hist) Mean() sim.Time {
	if h.count == 0 {
		return 0
	}
	return h.sum / sim.Time(h.count)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) with ~4% bucket resolution.
func (h *Hist) Quantile(q float64) sim.Time {
	if h.count == 0 {
		return 0
	}
	want := int64(q * float64(h.count-1))
	var seen int64
	for i, n := range h.buckets {
		seen += n
		if seen > want {
			return bucketValue(i)
		}
	}
	return h.max
}

// Stage is one of the six critical stages of a Memcached Set/Get (Section
// III-A of the paper), numbered in presentation order (as in Fig. 2).
type Stage int

const (
	StageSlabAlloc Stage = iota
	StageCacheLoad
	StageCacheUpdate
	StageResponse
	StageClientWait
	StageMissPenalty
	numStages
)

// Breakdown accumulates virtual time per stage. The zero value is empty, and
// a copy is a snapshot.
type Breakdown [numStages]sim.Time

// Add records d of time in the given stage.
func (b *Breakdown) Add(stage Stage, d sim.Time) { b[stage] += d }

// Sub returns b minus an earlier snapshot: the activity of just the
// measurement phase.
func (b *Breakdown) Sub(snap Breakdown) Breakdown {
	for i := range snap {
		snap[i] = b[i] - snap[i]
	}
	return snap
}

// Merge folds other into b.
func (b *Breakdown) Merge(other Breakdown) {
	for i, d := range other {
		b[i] += d
	}
}

// Total returns the accumulated time in a stage.
func (b *Breakdown) Total(stage Stage) sim.Time { return b[stage] }

// PerOp returns stage time divided across n operations.
func (b *Breakdown) PerOp(stage Stage, n int64) sim.Time {
	if n == 0 {
		return 0
	}
	return b[stage] / sim.Time(n)
}

// Counter is one count the client runtime or a replicator keeps: a slot of
// Counters, registered once with its name in the block below.
type Counter uint8

var counterNames []string // each registered counter's name, at its slot

// counter registers name in the next slot. A name registered twice panics,
// and so does one past the registry's fixed capacity.
func counter(name string) Counter {
	if slices.Contains(counterNames, name) {
		panic(fmt.Sprintf("metrics: counter %q registered twice", name))
	}
	if len(counterNames) == len(Counters{}) {
		panic(fmt.Sprintf("metrics: counter %q past the registry's %d slots", name, len(Counters{})))
	}
	counterNames = append(counterNames, name)
	return Counter(len(counterNames) - 1)
}

// String returns the name the counter was registered with.
func (c Counter) String() string { return counterNames[c] }

// The registry: a core.Client's Counters hold the client runtime's counts, a
// replication.Replicator's the replication counts (DESIGN.md §10).
var (
	// Operation flow.
	CIssued    = counter("issued")    // operations issued
	CCompleted = counter("completed") // operations completed
	CSends     = counter("sends")     // wire sends, also the flow-control credits consumed
	CFrames    = counter("frames")    // coalesced frames among those sends
	CFrameOps  = counter("frame-ops") // operations those frames carried

	// Retry/guard counters.
	CRetries          = counter("retries")           // guard retransmissions
	CTimeouts         = counter("timeouts")          // attempts abandoned at the deadline
	CCancels          = counter("cancels")           // caller-initiated cancellations
	CFailovers        = counter("failovers")         // retransmissions redirected to a replica
	CFailoverSkip     = counter("failover-skips")    // failover candidates skipped (down/open)
	CHedges           = counter("hedges")            // hedge attempts actually spawned
	CHedgesSuppressed = counter("hedges-suppressed") // hedges skipped: the bypass path had resolved the request

	// Server-pushback counters.
	CStaleResponses = counter("stale-responses") // responses for superseded attempts
	CBusy           = counter("busy")            // StatusBusy shed rejections
	CRecovering     = counter("recovering")      // StatusRecovering rejections
	CNoReplica      = counter("no-replica")      // StatusNoReplica chain failures

	// Circuit-breaker counters.
	CBreakerOpen     = counter("breaker-open")
	CBreakerHalfOpen = counter("breaker-halfopen")
	CBreakerClose    = counter("breaker-close")
	CBreakerReroutes = counter("breaker-reroutes")

	// Server-bypass read-path counters.
	CBypassHits         = counter("bypass-hits")           // GETs resolved by one-sided READs
	CBypassFastPath     = counter("bypass-fastpath")       // hits resolved by exactly one READ (inline slot, or cached segment location)
	CBypassFallbacks    = counter("bypass-fallbacks")      // bypass attempts that fell back to RPC
	CBypassBootstraps   = counter("bypass-bootstraps")     // OpDirQuery directory fetches
	CBypassHitReads     = counter("bypass-hit-reads")      // READs posted by the GETs that hit (a fallback's are in CBypassReads only)
	CBypassHitReadBytes = counter("bypass-hit-read-bytes") // the bytes those READs asked for

	// Hot-key serving counters.
	CBypassReprobes      = counter("bypass-reprobes")       // transient seqlock doubts re-probed instead of RPC fallback
	CBypassReads         = counter("bypass-reads")          // one-sided READs posted by the bypass path
	CBypassReadDoorbells = counter("bypass-read-doorbells") // doorbells those READs cost after coalescing
	CHotFanouts          = counter("hot-fanouts")           // hot-key GETs routed across the replica set
	CHotRefreshes        = counter("hot-refreshes")         // piggybacked hot-set refresh queries
	CHotSamples          = counter("hot-samples")           // GETs routed via RPC to feed the server's heat sketch

	// Dynamic membership counters.
	CEpochInvalidations = counter("epoch-invalidations") // placement caches dropped on a membership epoch change
	CRetiredConns       = counter("retired-conns")       // decommissioned servers whose client state was released

	// Gray-failure counters (brown-out: a routable connection GETs avoid).
	CBrownoutsEntered = counter("brownouts-entered") // connections demoted to brown-out by the health tracker
	CBrownoutsExited  = counter("brownouts-exited")  // connections restored to healthy
	CSlowRoutedGets   = counter("slow-routed-gets")  // GETs steered away from a browned-out replica
	CHealthSamples    = counter("health-samples")    // per-op service-time samples fed to the health tracker

	// Replication counters.
	CForwards                 = counter("forwards")
	CForwardResends           = counter("forward-resends")
	CEpochConflicts           = counter("epoch-conflicts")
	CRepairPushes             = counter("repair-pushes")
	CRepairPulls              = counter("repair-pulls")
	CScrubRounds              = counter("scrub-rounds")
	CSuspectDrops             = counter("suspect-drops")
	CStaleReadsPrevented      = counter("stale-reads-prevented")
	CCorruptFramesRejected    = counter("corrupt-frames-rejected")
	CScrubCorruptionsFound    = counter("scrub-corruptions-found")
	CScrubCorruptionsRepaired = counter("scrub-corruptions-repaired")
	CPacerDeferrals           = counter("pacer-deferrals")
	CMigrateSeals             = counter("migrate-seals")
	CMigrateManifests         = counter("migrate-manifests")
	CMigrateKeysMoved         = counter("migrate-keys-moved")
	CMigrateGCKeys            = counter("migrate-gc-keys")
	CMigrateReadRedirects     = counter("migrate-read-redirects")
	CMigrateDoubleReads       = counter("migrate-double-reads")
)

// Counters holds one value per registered Counter. The zero value is ready
// to use, and a copy is a snapshot.
type Counters [64]int64

// Inc adds one to ctr.
func (c *Counters) Inc(ctr Counter) { c[ctr]++ }

// Add adds n to ctr.
func (c *Counters) Add(ctr Counter, n int64) { c[ctr] += n }

// Val returns ctr's value: how code under internal/ reads a counter.
func (c *Counters) Val(ctr Counter) int64 { return c[ctr] }

// Get returns the counter registered as name and panics on a name nobody
// registered: it is for benchmark/layers.go, and code under internal/ uses Val.
func (c *Counters) Get(name string) int64 {
	if i := slices.Index(counterNames, name); i >= 0 {
		return c[i]
	}
	panic(fmt.Sprintf("metrics: no counter named %q", name))
}

// Merge folds other's counters into c.
func (c *Counters) Merge(other *Counters) {
	for i, v := range other {
		c[i] += v
	}
}

// Throughput returns operations per (virtual) second.
func Throughput(ops int64, elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(ops) / elapsed.Seconds()
}

// Series is a labeled sequence of (x, y) points — one figure line.
type Series struct {
	Name   string
	Labels []string
	Values []float64
}

// Append adds one point.
func (s *Series) Append(label string, v float64) {
	s.Labels = append(s.Labels, label)
	s.Values = append(s.Values, v)
}

// Table renders aligned rows for a set of series sharing labels.
func Table(title string, series ...*Series) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	if len(series) == 0 {
		return sb.String()
	}
	fmt.Fprintf(&sb, "  %-24s", "")
	for _, s := range series {
		fmt.Fprintf(&sb, " %16s", s.Name)
	}
	sb.WriteByte('\n')
	for i, label := range series[0].Labels {
		fmt.Fprintf(&sb, "  %-24s", label)
		for _, s := range series {
			if i < len(s.Values) {
				fmt.Fprintf(&sb, " %16.2f", s.Values[i])
			} else {
				fmt.Fprintf(&sb, " %16s", "-")
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
