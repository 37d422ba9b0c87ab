package main

import (
	"math"
	"sort"
)

// tailMinBeyond is how many samples must lie strictly above a reported
// tail percentile for it to mean anything: a p90 over 30 samples is the
// third-slowest campaign, not a percentile.
const tailMinBeyond = 10

// tailQ is the tail percentile the benchmark reports (campaign_s_p90).
const tailQ = 0.9

// minTailSamples is the sample count at which tailQ first has
// tailMinBeyond samples beyond it; runs keep going until they reach it.
const minTailSamples = 100

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of xs (the mean of the two middles for an
// even count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1) and
// whether at least tailMinBeyond samples lie beyond it. A caller
// reporting a tail latency must treat !ok as "too few samples"; NaN for
// no samples.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	s := sortedCopy(xs)
	n := len(s)
	// The epsilon keeps q·n that is integral in exact arithmetic (0.9·100)
	// from rounding up a rank through float error.
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], n-rank >= tailMinBeyond
}

// pipelineBound is the planner's own model of a pipelined campaign's wall
// time over compress seconds c, transfer seconds t and g groups: the
// longer stage runs in full and the shorter hides inside it except for
// one group, max(C,T) + min(C,T)/G.
func pipelineBound(c, t float64, g int) float64 {
	if g < 1 {
		g = 1
	}
	return math.Max(c, t) + math.Min(c, t)/float64(g)
}

// pairedOverhead is the median over pairs of traced/untraced − 1: the
// paired, interleaved estimate of tracing cost, robust to drift that
// would bias a comparison of two separate medians.
func pairedOverhead(traced, untraced []float64) float64 {
	n := len(traced)
	if len(untraced) < n {
		n = len(untraced)
	}
	ratios := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if untraced[i] > 0 {
			ratios = append(ratios, traced[i]/untraced[i]-1)
		}
	}
	if len(ratios) == 0 {
		return 0
	}
	return median(ratios)
}
