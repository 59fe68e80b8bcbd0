package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return s[lo] + (s[hi]-s[lo])*(rank-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// segmentRates splits a run's ops into n equal consecutive segments and
// returns each segment's work ÷ busy time. Reporting the median segment
// keeps one noisy-neighbour burst from moving the throughput figure:
// it lands in one segment, not in the total.
func segmentRates(secs, work []float64, n int) []float64 {
	if n > len(secs) {
		n = len(secs)
	}
	rates := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := i*len(secs)/n, (i+1)*len(secs)/n
		if t := sum(secs[lo:hi]); t > 0 {
			rates = append(rates, sum(work[lo:hi])/t)
		}
	}
	return rates
}

// relDiff is how much worse b is than a, as a share of a, for a metric
// whose better direction is given; negative means b is better.
func relDiff(a, b float64, better string) float64 {
	if a == 0 {
		return math.Inf(1)
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}
