package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of xs by the nearest-rank
// rule: the smallest value with at least q·n values at or below it.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// slices is the number of consecutive parts a run's latencies are cut
// into (and the closed loop's probe rounds).
const slices = 5

// slice cuts xs, which are in send order, into slices consecutive
// parts of equal size (the first ones take the remainder).
func slice(xs []float64) [][]float64 {
	parts := make([][]float64, 0, slices)
	for i := range slices {
		parts = append(parts, xs[i*len(xs)/slices:(i+1)*len(xs)/slices])
	}
	return parts
}

// sliced is the median over the slices of xs of each slice's
// q-quantile: a stretch in which a shared host runs slow moves at most
// one slice, not the reported figure.
func sliced(xs []float64, q float64) float64 {
	var qs []float64
	for _, part := range slice(xs) {
		qs = append(qs, quantile(part, q))
	}
	return median(qs)
}

// beyond counts the samples strictly above the pct-th percentile.
func beyond(xs []float64, pct float64) int {
	v := quantile(xs, pct/100)
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
