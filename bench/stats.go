package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-th percentile (0 < q <= 1) of sorted values by
// the nearest-rank rule; 0 for an empty slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(idx, 0), len(sorted)-1)]
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// tailPerMille are the tail quantiles the report may quote, ascending, in
// thousandths (integers keep the rank arithmetic exact).
var tailPerMille = []int{900, 950, 990, 999}

// highestPercentile returns the highest tail quantile with at least ten of
// the n samples beyond its nearest-rank position; ok is false when even p90
// has fewer.
func highestPercentile(n int) (q float64, ok bool) {
	for _, pm := range tailPerMille {
		if rank := (n*pm + 999) / 1000; n-rank >= 10 {
			q, ok = float64(pm)/1000, true
		}
	}
	return q, ok
}

// millis converts durations to sorted milliseconds.
func millis(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = float64(x) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}
