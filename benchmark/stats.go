package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: fewer, and the order statistic is one op's luck.
const minBeyond = 10

// percentile returns the exact q-quantile (nearest rank) of sorted, which
// must be in ascending order. ok is false when fewer than minBeyond samples
// lie beyond the chosen rank; such a percentile is left out of the report
// rather than printed from too few samples.
func percentile(sorted []int64, q float64) (v int64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	if n-rank < minBeyond {
		return 0, false
	}
	return sorted[rank-1], true
}

func sortedCopy(v []int64) []int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// median returns the middle value of v (mean of the middle two for an even
// count); 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// fastest returns the smallest value of v. Host time per op is reported as
// the fastest pass: interference on a shared box only ever adds time.
func fastest(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	m := v[0]
	for _, x := range v[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// spread returns (max-min)/median of v, the pass-to-pass disagreement of a
// host measurement; 0 when it cannot be computed.
func spread(v []float64) float64 {
	med := median(v)
	if len(v) < 2 || med == 0 {
		return 0
	}
	lo, hi := v[0], v[0]
	for _, x := range v[1:] {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return (hi - lo) / med
}

// ratio returns num/den, or 0 when den is 0: a share of nothing is reported
// as 0 rather than NaN, which JSON cannot carry.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
