package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("one sample: %v", got)
	}
	// Symmetric data: the median estimate is the centre.
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); math.Abs(got-3) > 1e-9 {
		t.Errorf("median of 1..5: %v", got)
	}
	// Uniform 1..1000: estimates sit near the true quantiles.
	var u []float64
	for i := 1; i <= 1000; i++ {
		u = append(u, float64(i))
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if got, want := percentile(u, q), q*1000; math.Abs(got-want) > 3 {
			t.Errorf("q=%v: %v, want about %v", q, got, want)
		}
	}
	if p50, p99 := percentile(u, 0.5), percentile(u, 0.99); !(p50 < p99) {
		t.Errorf("p50 %v not below p99 %v", p50, p99)
	}
}

func TestNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{0.01: 1, 0.2: 1, 0.5: 3, 0.9: 5, 0.99: 5} {
		if got := nearestRank(xs, q); got != want {
			t.Errorf("q=%v: %v, want %v", q, got, want)
		}
	}
}
