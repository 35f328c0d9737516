package main

import (
	"math/rand"
	"testing"
	"time"
)

// oraclePercentile is the nearest-rank definition read literally: the
// smallest sample v such that at least q·n samples are <= v.
func oraclePercentile(xs []float64, q float64) float64 {
	best := 0.0
	found := false
	for _, v := range xs {
		n := 0
		for _, x := range xs {
			if x <= v {
				n++
			}
		}
		if float64(n) >= q*float64(len(xs)) && (!found || v < best) {
			best, found = v, true
		}
	}
	return best
}

func TestPercentileMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		xs := make([]float64, 1+rng.Intn(60))
		for i := range xs {
			// Few distinct values, so ties are common.
			xs[i] = float64(rng.Intn(20))
		}
		for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			if got, want := percentile(xs, q), oraclePercentile(xs, q); got != want {
				t.Fatalf("percentile(%v, %v) = %v, oracle %v", xs, q, got, want)
			}
		}
	}
}

func TestPercentileEdges(t *testing.T) {
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty: %v", got)
	}
	xs := []float64{3, 1, 2}
	if got := median(xs); got != 2 {
		t.Errorf("median = %v", got)
	}
	if xs[0] != 3 {
		t.Error("percentile reordered its input")
	}
}

func TestFirstOpRatioUsesItsClass(t *testing.T) {
	s := []sample{
		{lat: 30 * time.Millisecond, class: "a"},
		{lat: 10 * time.Millisecond, class: "a"},
		{lat: 1000 * time.Millisecond, class: "b"},
		{lat: 20 * time.Millisecond, class: "a"},
	}
	// Median of the other class-a ops (10, 20) is the lower middle, 10.
	if got := firstOpRatio(s); got != 3 {
		t.Errorf("firstOpRatio = %v, want 3", got)
	}
}
