package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0..1) of an ascending-sorted sample by
// the nearest-rank rule, so the value is always one that was observed.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (its default "exclusive" method),
// because that is what the benchmark's acceptance rule is written in.
// It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise figure every bound is compared with.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(v)
	m := median(v)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// suggestBound is the rule the checked-in bounds were set by: the bound so
// far, widened until the measured spread is a third of it, capped at the
// contract's 25 %.
func suggestBound(bound, measuredSpread float64) float64 {
	return math.Min(math.Max(bound, 3*measuredSpread), 0.25)
}

// verdict decides a run's correctness: no oracle mismatch at all, and the
// failed share within the workload's declared bound.
func verdict(attempted, failed, mismatches int, failedShareBound float64) bool {
	if attempted == 0 || mismatches > 0 {
		return false
	}
	return float64(failed)/float64(attempted) <= failedShareBound
}
