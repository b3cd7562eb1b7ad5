// Package metrics provides the measurement plumbing for the experiment
// harness: latency histograms over virtual time, the paper's six-stage
// time-wise breakdown accumulators (Figures 2 and 6), and throughput /
// overlap helpers.
package metrics

import (
	"fmt"
	"math"
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

// Stage labels for the six critical stages of a Memcached Set/Get
// (Section III-A of the paper).
const (
	StageSlabAlloc   = "slab-allocation"
	StageCacheLoad   = "cache-check-and-load"
	StageCacheUpdate = "cache-update"
	StageResponse    = "server-response"
	StageClientWait  = "client-wait"
	StageMissPenalty = "miss-penalty"
)

// Stages lists the breakdown stages in presentation order (as in Fig. 2).
var Stages = []string{
	StageSlabAlloc, StageCacheLoad, StageCacheUpdate,
	StageResponse, StageClientWait, StageMissPenalty,
}

// Breakdown accumulates per-stage virtual time.
type Breakdown struct {
	total map[string]sim.Time
}

// NewBreakdown returns an empty accumulator.
func NewBreakdown() *Breakdown {
	return &Breakdown{total: make(map[string]sim.Time)}
}

// Add records d of time in the given stage.
func (b *Breakdown) Add(stage string, d sim.Time) {
	b.total[stage] += d
}

// Snapshot returns an independent copy (freeze the state before a
// measurement phase, then Sub it away afterwards).
func (b *Breakdown) Snapshot() *Breakdown {
	c := NewBreakdown()
	for k, v := range b.total {
		c.total[k] = v
	}
	return c
}

// Sub returns b minus an earlier snapshot: the activity of just the
// measurement phase.
func (b *Breakdown) Sub(snap *Breakdown) *Breakdown {
	c := NewBreakdown()
	for k, v := range b.total {
		if d := v - snap.total[k]; d != 0 {
			c.total[k] = d
		}
	}
	return c
}

// Merge folds other into b.
func (b *Breakdown) Merge(other *Breakdown) {
	for k, v := range other.total {
		b.total[k] += v
	}
}

// Total returns the accumulated time in a stage.
func (b *Breakdown) Total(stage string) sim.Time { return b.total[stage] }

// PerOp returns stage time divided across n operations.
func (b *Breakdown) PerOp(stage string, n int64) sim.Time {
	if n == 0 {
		return 0
	}
	return b.total[stage] / sim.Time(n)
}

// Counter names the fault, retry, and availability counters the client
// runtime maintains. Typed constants replace the stringly-typed keys that
// used to be scattered through internal/core: call sites increment with
// Counters.Inc and read with Counters.Val, so a typo is a compile error
// instead of a silently-zero counter.
type Counter string

const (
	// Retry/guard counters.
	CRetries      Counter = "retries"        // guard retransmissions
	CTimeouts     Counter = "timeouts"       // attempts abandoned at the deadline
	CCancels      Counter = "cancels"        // caller-initiated cancellations
	CFailovers    Counter = "failovers"      // retransmissions redirected to a replica
	CFailoverSkip Counter = "failover-skips" // failover candidates skipped (down/open)
	CAckedRetries Counter = "acked-retries"  // retransmits of already-buffer-acked reqs
	CHedges       Counter = "hedges"         // hedge attempts actually spawned
	// CHedgesSuppressed counts hedges skipped because the request had
	// already been resolved on the bypass path; see WithHedge.
	CHedgesSuppressed Counter = "hedges-suppressed"

	// Server-pushback counters.
	CStaleResponses Counter = "stale-responses" // responses for superseded attempts
	CBusy           Counter = "busy"            // StatusBusy shed rejections
	CRecovering     Counter = "recovering"      // StatusRecovering rejections
	CNoReplica      Counter = "no-replica"      // StatusNoReplica chain failures

	// Circuit-breaker counters.
	CBreakerOpen     Counter = "breaker-open"
	CBreakerHalfOpen Counter = "breaker-halfopen"
	CBreakerClose    Counter = "breaker-close"
	CBreakerReroutes Counter = "breaker-reroutes"

	// Server-bypass read-path counters.
	CBypassHits       Counter = "bypass-hits"       // GETs resolved by one-sided READs
	CBypassFastPath   Counter = "bypass-fastpath"   // hits resolved by exactly one READ (inline slot, or cached segment location)
	CBypassFallbacks  Counter = "bypass-fallbacks"  // bypass attempts that fell back to RPC
	CBypassBootstraps Counter = "bypass-bootstraps" // OpDirQuery directory fetches
	// What the hits cost: READs posted by the GETs that then resolved
	// one-sided, and the bytes those READs asked for (READs spent on GETs
	// that fell back are in CBypassReads only).
	CBypassHitReads     Counter = "bypass-hit-reads"
	CBypassHitReadBytes Counter = "bypass-hit-read-bytes"

	// Hot-key serving counters.
	CBypassReprobes      Counter = "bypass-reprobes"       // transient seqlock doubts re-probed instead of RPC fallback
	CBypassReads         Counter = "bypass-reads"          // one-sided READs posted by the bypass path
	CBypassReadDoorbells Counter = "bypass-read-doorbells" // doorbells those READs cost after coalescing
	CHotFanouts          Counter = "hot-fanouts"           // hot-key GETs routed across the replica set
	CHotRefreshes        Counter = "hot-refreshes"         // piggybacked hot-set refresh queries
	CHotSamples          Counter = "hot-samples"           // GETs routed via RPC to feed the server's heat sketch

	// Dynamic membership counters.
	CEpochInvalidations Counter = "epoch-invalidations" // placement caches dropped on a membership epoch change
	CRetiredConns       Counter = "retired-conns"       // decommissioned servers whose client state was released

	// Gray-failure counters. Brown-out is the deprioritized-but-routable
	// breaker state driven by the latency health tracker: the connection
	// still answers, so it is never opened, but GET routing prefers a
	// healthy replica while one exists.
	CBrownoutsEntered Counter = "brownouts-entered" // connections demoted to brown-out by the health tracker
	CBrownoutsExited  Counter = "brownouts-exited"  // connections restored to healthy
	CSlowRoutedGets   Counter = "slow-routed-gets"  // GETs steered away from a browned-out replica
	CPacerDeferrals   Counter = "pacer-deferrals"   // background replication rounds deferred to foreground load
	CHealthSamples    Counter = "health-samples"    // per-op service-time samples fed to the health tracker

	// Data-integrity counters (server-side; surfaced through Client.Stats
	// via the cluster's integrity hook rather than the client's own bag).
	CScrubCorruptionsFound    Counter = "scrub-corruptions-found"    // same-epoch content divergences detected by scrub
	CScrubCorruptionsRepaired Counter = "scrub-corruptions-repaired" // divergences overwritten with the coordinator's copy
)

// Counters is a named-counter bag for fault, retry, and availability
// accounting. The zero value is not usable; call NewCounters.
type Counters struct {
	vals map[string]int64
}

// NewCounters returns an empty counter bag.
func NewCounters() *Counters {
	return &Counters{vals: make(map[string]int64)}
}

// Add increments the named counter by n.
func (c *Counters) Add(name string, n int64) { c.vals[name] += n }

// Get returns the named counter (0 if never touched).
func (c *Counters) Get(name string) int64 { return c.vals[name] }

// Inc increments a typed counter by one (every runtime site counts single
// events).
func (c *Counters) Inc(ctr Counter) { c.vals[string(ctr)]++ }

// Val returns a typed counter's value.
func (c *Counters) Val(ctr Counter) int64 { return c.vals[string(ctr)] }

// Merge folds other's counters into c.
func (c *Counters) Merge(other *Counters) {
	for k, v := range other.vals {
		c.vals[k] += v
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
