package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 5}, {0.95, 9}, {0.99, 9}, {1, 10}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median of ten = %v, want 5.5", got)
	}
	if got := median(xs[:9]); got != 5 {
		t.Errorf("median of nine = %v, want 5", got)
	}
	if percentile(nil, 0.5) != 0 || median(nil) != 0 {
		t.Error("empty samples must give 0")
	}
	if xs[0] != 9 {
		t.Error("percentile sorted its argument in place")
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4) gives.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{33.6, 30.5, 29.7, 29.8, 32.4, 33.0}, 29.775, 33.15},
		{[]float64{5, 1}, 0, 6},
		{[]float64{2, 4, 6}, 2, 6},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSpread(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(xs), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if spread([]float64{0, 0, 0}) != 0 {
		t.Error("spread of a zero median must be 0, not a division by zero")
	}
}

func TestSpeedFactor(t *testing.T) {
	for _, c := range []struct {
		shots []float64
		want  float64
	}{
		{[]float64{calRefMs, calRefMs, calRefMs}, 1},
		{[]float64{calRefMs * 1.1, 1, 1000}, 1 / 1.1}, // the median, not the outliers
		{[]float64{calRefMs / 2}, calMaxFactor},       // a box twice as fast: cut off
		{[]float64{calRefMs * 2}, 1 / calMaxFactor},   // and twice as slow
		{nil, 1},
	} {
		if got := speedFactor(c.shots); !near(got, c.want) {
			t.Errorf("speedFactor(%v) = %v, want %v", c.shots, got, c.want)
		}
	}
}
