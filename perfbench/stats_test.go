package main

import (
	"math"
	"testing"
)

func TestQuantileMatchesInclusiveMethod(t *testing.T) {
	// Python: statistics.quantiles([1, 2, 3, 4], n=4, method="inclusive")
	// gives [1.75, 2.5, 3.25].
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.75, 3.25}, {1, 4},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of an odd sample = %v, want 3", got)
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of an empty sample should be NaN")
	}
}

func TestPercentileNeedsTenSamplesBeyondIt(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{20, 0.5, true},  // 10 beyond the median
		{19, 0.5, false}, // 9.5
		{100, 0.9, true}, // 10 beyond p90
		{99, 0.9, false}, // 9.9
		{1000, 0.99, true},
		{999, 0.99, false},
	} {
		if got := reportable(c.n, c.q); got != c.want {
			t.Errorf("reportable(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, ok := percentileIfReportable(xs, 0.9); ok {
		t.Error("p90 of 99 samples has fewer than 10 beyond it and must not be reported")
	}
	xs = append(xs, 99)
	if v, ok := percentileIfReportable(xs, 0.9); !ok || math.Abs(v-89.1) > 1e-9 {
		t.Errorf("p90 of 0..99 = %v, %v; want 89.1, true", v, ok)
	}
}
