package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hybridkv/internal/metrics"
	"hybridkv/internal/protocol"
	"hybridkv/internal/server"
	"hybridkv/internal/sim"
	"hybridkv/internal/simnet"
	"hybridkv/internal/store"
)

// The sizes that tell a bypass READ's legs apart from every other message in
// TestPooledBucketsUnderFaults: a READ request is 16 bytes, and a READ
// response moves a whole bucket or a segment of an out-of-line value. No
// request or reply of the test has either size.
const (
	readRequestBytes = 16
	bigValueBytes    = 4 * protocol.DirInlineMax
	segmentBytes     = protocol.DirSegHeaderBytes + bigValueBytes
)

// bucketFaults drops 2 % of the messages and duplicates 5 % of the READ
// requests and READ responses; of the READ responses it drops another 2 %
// and delays 2 % past the resolver's patience. A READ response's transfer
// holds the record it captured until its last delivery, or until the fabric
// drops it. A late response reaches a resolver that gave up on it.
type bucketFaults struct {
	rng                            *rand.Rand
	off                            bool
	dropped, lostReads, dups, late int
}

func (f *bucketFaults) Transmit(src, dst string, size int, now sim.Time) simnet.Verdict {
	if f.off {
		return simnet.Verdict{}
	}
	fromServer := strings.HasPrefix(src, "server")
	response := fromServer && (size == protocol.DirBucketBytes || size == segmentBytes)
	request := !fromServer && size == readRequestBytes
	switch u := f.rng.Float64(); {
	case u < 0.02 && response:
		f.late++
		return simnet.Verdict{ExtraDelay: 2 * bypassReadTimeout}
	case u < 0.04 && response:
		f.lostReads++
		return simnet.Verdict{Drop: true}
	case u < 0.02:
		f.dropped++
		return simnet.Verdict{Drop: true}
	case u < 0.07 && (request || response):
		f.dups++
		return simnet.Verdict{Duplicate: true}
	}
	return simnet.Verdict{}
}

// TestPooledBucketsUnderFaults drives bypass GETs against SET storms on six
// keys — three inline, three behind out-of-line segments — in a directory of
// four buckets, so that keys spill and displace one another, through a
// fabric that drops messages — READ responses among them — duplicates READ
// requests and responses and delays some responses past the resolver's
// timeout, with a cold restart of
// the server while READs are in flight. Every hit must be a value of its own
// key: a bucket or segment recycled under a READ that captured it, or under
// a resolver still copying it, would hand a GET another key's value or panic
// where it is touched. Once the run has quiesced, the census finds every
// bucket and segment record the directory made free or held once, by the MR
// segment that publishes it — a dropped READ's capture included.
func TestPooledBucketsUnderFaults(t *testing.T) {
	const (
		keys    = 6
		buckets = 4
		writers = 2
		readers = 4
		sets    = 150
		gets    = 300
	)
	r := newTestRig(rigOpts{
		transport: RDMA, pipeline: server.Async, hybrid: true,
		clientCfg: func(c *Config) { c.Bypass = true },
	})
	srv, c := r.servers[0], r.client
	dir := store.NewDirectory(srv.Device().AllocPD(), buckets)
	srv.AttachBypassDirectory(dir)
	faults := &bucketFaults{rng: rand.New(rand.NewSource(49))}
	retry := WithRetry(RetryPolicy{MaxAttempts: 40, AttemptTimeout: 40 * sim.Microsecond, Jitter: -1})
	key := func(k int) string { return fmt.Sprintf("k%d", k) }
	size := func(k int) int {
		if k%2 == 0 {
			return 64
		}
		return bigValueBytes
	}

	done, inflightAtCrash, hits := 0, 0, 0
	r.env.Spawn("preload", func(p *sim.Proc) {
		for k := range keys {
			c.Set(p, key(k), size(k), key(k)+"#0", 0, 0)
		}
		r.fabric.SetFaults(faults)
		for w := range writers {
			rng := rand.New(rand.NewSource(int64(w)))
			r.env.Spawn("writer", func(p *sim.Proc) {
				defer func() { done++ }()
				for i := 1; i <= sets; i++ {
					k := rng.Intn(keys)
					req, err := c.Issue(p, Op{Code: protocol.OpSet, Key: key(k), ValueSize: size(k),
						Value: fmt.Sprintf("%s#%d.%d", key(k), w, i)}, retry)
					if err != nil {
						t.Errorf("issue SET: %v", err)
						return
					}
					c.Wait(p, req)
					c.Release(req)
					p.Sleep(3 * sim.Microsecond)
				}
			})
		}
		for rd := range readers {
			rng := rand.New(rand.NewSource(int64(100 + rd)))
			r.env.Spawn("reader", func(p *sim.Proc) {
				defer func() { done++ }()
				for range gets {
					k := rng.Intn(keys)
					req, err := c.Issue(p, Op{Code: protocol.OpGet, Key: key(k)}, retry)
					if err != nil {
						t.Errorf("issue GET: %v", err)
						return
					}
					c.Wait(p, req)
					if req.Err() == nil {
						hits++
						if v, ok := req.Value.(string); !ok || !strings.HasPrefix(v, key(k)+"#") || req.ValueSize != size(k) {
							t.Errorf("GET %s (bypassed %v): %v, %d bytes", key(k), req.Bypassed(), req.Value, req.ValueSize)
						}
					}
					c.Release(req)
					p.Sleep(2 * sim.Microsecond)
				}
			})
		}
		// A cold restart once READs are in flight: the directory quiesces
		// under them, and the restart republishes what recovery found.
		p.Sleep(300 * sim.Microsecond)
		for len(c.conns[0].readWaits) == 0 {
			p.Sleep(100 * sim.Nanosecond)
		}
		inflightAtCrash = len(c.conns[0].readWaits)
		srv.Outage(p, server.ColdCrash, 200*sim.Microsecond)
	})
	r.env.Run()
	if done != writers+readers {
		t.Fatalf("%d of %d workers finished: the run went idle with a request unanswered", done, writers+readers)
	}
	if faults.dropped == 0 || faults.lostReads == 0 || faults.dups == 0 || faults.late == 0 || inflightAtCrash == 0 {
		t.Fatalf("faults never bit: %d dropped, %d READ responses lost, %d duplicated, %d late, %d READs in flight at the crash",
			faults.dropped, faults.lostReads, faults.dups, faults.late, inflightAtCrash)
	}
	if c.Counters.Val(metrics.CBypassHits) == 0 || hits == 0 {
		t.Fatalf("no GET hit one-sided (%d hits in all)", hits)
	}

	if err := r.census().Err(); err != nil {
		t.Error(err)
	}
	t.Logf("%d hits (%d one-sided), %d fallbacks; faults: %d dropped, %d READ responses lost, %d duplicated, %d late; %d READs in flight at the crash; %d buckets and %d segments made",
		hits, c.Counters.Val(metrics.CBypassHits), c.Counters.Val(metrics.CBypassFallbacks),
		faults.dropped, faults.lostReads, faults.dups, faults.late, inflightAtCrash, dir.BucketRecs.Made, dir.SegmentRecs.Made)
}
