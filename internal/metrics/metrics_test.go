package metrics

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"hybridkv/internal/sim"
)

func TestHistEmpty(t *testing.T) {
	h := NewHist()
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Errorf("empty hist not all-zero: %+v", h)
	}
}

func TestHistBasicStats(t *testing.T) {
	h := NewHist()
	for _, d := range []sim.Time{10, 20, 30, 40} {
		h.Add(d * sim.Microsecond)
	}
	if h.Count() != 4 {
		t.Errorf("count %d", h.Count())
	}
	if h.Mean() != 25*sim.Microsecond {
		t.Errorf("mean %v", h.Mean())
	}
	if h.max != 40*sim.Microsecond {
		t.Errorf("max %v", h.max)
	}
}

func TestHistQuantileAccuracy(t *testing.T) {
	h := NewHist()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 10000; i++ {
		h.Add(sim.Time(rng.Intn(1000)+1) * sim.Microsecond)
	}
	p50 := h.Quantile(0.5)
	// True median ≈ 500µs; log buckets give ~4.4% resolution.
	if p50 < 450*sim.Microsecond || p50 > 560*sim.Microsecond {
		t.Errorf("p50 %v, want ≈500µs", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 900*sim.Microsecond || p99 > 1100*sim.Microsecond {
		t.Errorf("p99 %v, want ≈990µs", p99)
	}
	if h.Quantile(0) > h.Quantile(1) {
		t.Errorf("quantiles not monotone")
	}
}

// Property: mean is always within [the lowest bucket, max] and quantiles are
// monotone.
func TestHistInvariantsProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHist()
		for _, v := range raw {
			h.Add(sim.Time(v%1_000_000) + 1)
		}
		if h.Mean() < h.Quantile(0) || h.Mean() > h.max {
			return false
		}
		prev := sim.Time(0)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.99, 1} {
			cur := h.Quantile(q)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBreakdown(t *testing.T) {
	b := NewBreakdown()
	b.Add(StageSlabAlloc, 10*sim.Microsecond)
	b.Add(StageSlabAlloc, 30*sim.Microsecond)
	b.Add(StageClientWait, 100*sim.Microsecond)
	if b.Total(StageSlabAlloc) != 40*sim.Microsecond {
		t.Errorf("total %v", b.Total(StageSlabAlloc))
	}
	if b.PerOp(StageSlabAlloc, 4) != 10*sim.Microsecond {
		t.Errorf("per-op %v", b.PerOp(StageSlabAlloc, 4))
	}
	if b.PerOp(StageSlabAlloc, 0) != 0 {
		t.Errorf("per-op with zero ops should be 0")
	}
}

func TestBreakdownMerge(t *testing.T) {
	a, b := NewBreakdown(), NewBreakdown()
	a.Add(StageCacheLoad, 5*sim.Microsecond)
	b.Add(StageCacheLoad, 7*sim.Microsecond)
	b.Add(StageResponse, 2*sim.Microsecond)
	a.Merge(b)
	if a.Total(StageCacheLoad) != 12*sim.Microsecond {
		t.Errorf("merged load %v", a.Total(StageCacheLoad))
	}
	if a.Total(StageResponse) != 2*sim.Microsecond {
		t.Errorf("merged response %v", a.Total(StageResponse))
	}
}

func TestThroughput(t *testing.T) {
	if got := Throughput(1000, sim.Second); got != 1000 {
		t.Errorf("throughput %v", got)
	}
	if got := Throughput(500, 500*sim.Millisecond); got != 1000 {
		t.Errorf("throughput %v", got)
	}
	if Throughput(5, 0) != 0 {
		t.Errorf("zero-time throughput should be 0")
	}
}

func TestSeriesAndTable(t *testing.T) {
	a := &Series{Name: "RDMA-Mem"}
	a.Append("32K", 14.2)
	a.Append("64K", 20.1)
	b := &Series{Name: "IPoIB-Mem"}
	b.Append("32K", 55.0)
	b.Append("64K", 90.3)
	out := Table("Fig 1(a)", a, b)
	for _, want := range []string{"Fig 1(a)", "RDMA-Mem", "IPoIB-Mem", "32K", "64K", "14.20", "90.30"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}
