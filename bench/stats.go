package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending slice; 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the 50th percentile by interpolation between the two middle
// values, matching Python's statistics.median that the driver uses.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailRank is the highest whole percentile, capped at 99, that still has
// at least ten samples beyond it; a sample too small for that falls back
// to the median. 1000 samples are the fewest that support a p99.
func tailRank(n int) float64 {
	if n < 20 {
		return 50
	}
	p := math.Floor(100 * (1 - 10/float64(n)))
	return math.Max(50, math.Min(99, p))
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the
// default exclusive method), the rule the driver's spread check uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	q := func(i int) float64 {
		j := i * (ld + 1) / 4
		j = max(1, min(ld-1, j))
		// Taken after the clamp, as Python does: at the ends the
		// interpolation extrapolates.
		delta := i*(ld+1) - 4*j
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// iqrSpread is (Q3-Q1)/median, the run-to-run spread the driver compares
// with a metric's bound.
func iqrSpread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	return ratio(q3-q1, math.Abs(median(xs)))
}

// ratio is a/b with 0 for an empty denominator, so a layer a workload
// never touched reads as zero instead of NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
