package main

import (
	"math"
	"sort"
)

// tailLadder is the percentile ladder iter_ms_tail picks from.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.5, 99.9}

// beyond is how many of n sorted samples rank strictly above the
// nearest-rank p-th percentile.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)/100-1e-9))
}

// tailPercentile returns the highest ladder percentile that has at least
// ten of n samples beyond it. ok is false when n is too small for even the
// median to qualify; the median is returned then.
func tailPercentile(n int) (p float64, ok bool) {
	p = tailLadder[0]
	for _, q := range tailLadder {
		if beyond(n, q) >= 10 {
			p, ok = q, true
		}
	}
	return p, ok
}

// percentile is the nearest-rank p-th percentile of xs (NaN when empty).
// xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s))/100-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the middle value of xs, the mean of the two middle values for
// an even count (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tolIndex returns the first iteration at which the primal and dual
// residuals are both at most frac × the iteration-0 primal residual, or -1
// when no iteration reaches that target.
func tolIndex(primal, dual []float64, frac float64) int {
	if len(primal) == 0 {
		return -1
	}
	target := frac * primal[0]
	for i := range primal {
		if primal[i] <= target && dual[i] <= target {
			return i
		}
	}
	return -1
}

func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
