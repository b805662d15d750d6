package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values are what Python's statistics.quantiles(xs, n=4)
	// returns for the same input.
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 4, 3, 2, 1}, 1.5, 3, 4.5},
		{[]float64{3.1, 0.5, 2.2}, 0.5, 2.2, 3.1},
		{[]float64{7, 7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestSpreadIsQuartileDistanceOverMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{4, 4, 4, 4}); got != 0 {
		t.Errorf("spread of constant values = %v, want 0", got)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed, so the function must sort
		}
		return xs
	}
	cases := []struct {
		n      int
		pct    float64
		value  float64
		beyond int
		ok     bool
	}{
		{19, 0, 0, 0, false}, // the median has only 9 beyond it
		{20, 50, 10, 10, true},
		{39, 74, 29, 10, true},
		{40, 75, 30, 10, true},
		{99, 89, 89, 10, true},
		{100, 90, 90, 10, true},
		{108, 90, 98, 10, true},
		{200, 95, 190, 10, true},
		{1000, 99, 990, 10, true},
		{10000, 99.9, 9990, 10, true},
	}
	for _, c := range cases {
		pct, v, beyond, ok := tailPercentile(seq(c.n))
		if pct != c.pct || v != c.value || beyond != c.beyond || ok != c.ok {
			t.Errorf("n=%d: got p%v value %v beyond %d ok %v; want p%v value %v beyond %d ok %v",
				c.n, pct, v, beyond, ok, c.pct, c.value, c.beyond, c.ok)
		}
		if ok && beyond < minBeyondTail {
			t.Errorf("n=%d: only %d samples beyond the tail", c.n, beyond)
		}
	}
}

func TestSpearman(t *testing.T) {
	if r := spearman([]float64{1, 2, 3, 4}, []float64{10, 20, 30, 1000}); math.Abs(r-1) > 1e-12 {
		t.Errorf("monotone pairs: r = %v, want 1", r)
	}
	if r := spearman([]float64{1, 2, 3}, []float64{3, 2, 1}); math.Abs(r+1) > 1e-12 {
		t.Errorf("reversed pairs: r = %v, want -1", r)
	}
	// Ties share their average rank: ranks (1.5, 1.5, 3) against (1, 2, 3).
	if r, want := spearman([]float64{5, 5, 9}, []float64{1, 2, 3}), math.Sqrt(3)/2; math.Abs(r-want) > 1e-12 {
		t.Errorf("tied pairs: r = %v, want %v", r, want)
	}
	if r := spearman([]float64{1, 1}, []float64{1, 2}); !math.IsNaN(r) {
		t.Errorf("constant side: r = %v, want NaN", r)
	}
}
