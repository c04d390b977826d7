package main

import (
	"math"
	"sort"
	"time"
)

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks, the same rule as Python's
// statistics.quantiles(method="inclusive"). It returns NaN for an empty
// sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// minTail is how many samples must lie beyond a percentile before the
// benchmark reports it: with fewer, the value is one or two outliers,
// not a property of the system.
const minTail = 10

// reportable reports whether the q-percentile of n samples has at least
// minTail samples beyond it.
func reportable(n int, q float64) bool {
	return float64(n)*(1-q) >= minTail-1e-9
}

// percentileIfReportable returns the q-percentile of xs when at least
// minTail samples lie beyond it.
func percentileIfReportable(xs []float64, q float64) (float64, bool) {
	if !reportable(len(xs), q) {
		return 0, false
	}
	return quantile(xs, q), true
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// allFinite reports whether every value is a finite number.
func allFinite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// overheadShare compares repeated runs of the same work with tracing
// on and off: (fastest traced − fastest untraced) ÷ fastest untraced.
// The fastest run is the one least disturbed by other load on the
// machine, which can only slow a run down.
func overheadShare(traced, plain []float64) float64 {
	t, p := sortedCopy(traced)[0], sortedCopy(plain)[0]
	return (t - p) / p
}
