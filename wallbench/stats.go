package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs, or NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs, or NaN when xs is empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the three cut points dividing xs into four groups, by
// the same rule as Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method).  It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n, m := 4, len(s)+1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the first and third quartile of xs as a
// share of their median: the run-to-run variation a bound must exceed.
func spread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// tailLadder lists the percentiles a tail latency may be reported at,
// highest first: 99.9, then every whole percentile from 99 down to 50.
// Whole steps keep runs whose sample counts differ a little at nearby
// percentiles.
var tailLadder = func() []float64 {
	l := []float64{99.9}
	for p := 99; p >= 50; p-- {
		l = append(l, float64(p))
	}
	return l
}()

// minBeyondTail is the number of samples that must lie beyond a reported
// tail percentile for it to mean anything.
const minBeyondTail = 10

// tailPercentile returns the highest percentile of tailLadder that still
// has at least minBeyondTail samples beyond it, its nearest-rank value and
// the number of samples beyond it.  ok is false when even the median has
// fewer than minBeyondTail samples beyond it.
func tailPercentile(xs []float64) (pct, value float64, beyond int, ok bool) {
	s := sorted(xs)
	n := len(s)
	for _, p := range tailLadder {
		// Nearest rank; the epsilon keeps p*n/100 that is a whole number in
		// exact arithmetic from rounding up a rank.
		k := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
		if k < 0 {
			k = 0
		}
		if b := n - 1 - k; b >= minBeyondTail {
			return p, s[k], b, true
		}
	}
	return 0, 0, 0, false
}

// ranks returns the 1-based ranks of xs, ties sharing their average rank.
func ranks(xs []float64) []float64 {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	r := make([]float64, len(xs))
	for i := 0; i < len(idx); {
		j := i
		for j+1 < len(idx) && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			r[idx[k]] = avg
		}
		i = j + 1
	}
	return r
}

// spearman returns the Spearman rank correlation of the paired samples xs
// and ys, or NaN when it is undefined (fewer than two pairs, or a constant
// side).
func spearman(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	rx, ry := ranks(xs), ranks(ys)
	mx, my := mean(rx), mean(ry)
	var sxy, sxx, syy float64
	for i := range rx {
		dx, dy := rx[i]-mx, ry[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}
