package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestPercentileAgainstSortedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 9, 100, 1000, 4321} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.ExpFloat64()
		}
		sort.Float64s(xs)
		for _, p := range []float64{1, 50, 90, 99, 100} {
			// Oracle: the smallest value with at least p% of the sample at or below it.
			want := xs[n-1]
			for i, v := range xs {
				if float64(i+1) >= p/100*float64(n) {
					want = v
					break
				}
			}
			if got := percentile(xs, p); got != want {
				t.Errorf("n=%d p%v: got %v want %v", n, p, got, want)
			}
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty sample must read 0")
	}
}

func TestMedianMatchesPython(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd: %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even: %v", got)
	}
}

// The tail percentile is the highest one with at least ten samples beyond it.
func TestTailRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {19, 50}, {20, 50}, {40, 75}, {100, 90}, {999, 98}, {1000, 99}, {500000, 99}} {
		got := tailRank(c.n)
		if got != c.want {
			t.Errorf("tailRank(%d) = %v, want %v", c.n, got, c.want)
		}
		if beyond := float64(c.n) * (1 - got/100); c.n >= 20 && beyond < 10-1e-9 {
			t.Errorf("tailRank(%d) = p%v leaves only %.1f samples beyond", c.n, got, beyond)
		}
	}
}

// Values from Python: statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 4, 3, 2, 1}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
		{[]float64{1.2, 3.4, 2.2, 9.9, 4.1, 4.0, 0.3}, [3]float64{1.2, 3.4, 4.1}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v)[%d] = %v, want %v", c.xs, i, got, c.want[i])
			}
		}
	}
	xs := []float64{100, 101, 102, 103, 104, 105, 106, 107, 108, 109}
	if got, want := iqrSpread(xs), (107.25-101.75)/104.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrSpread = %v, want %v", got, want)
	}
}
