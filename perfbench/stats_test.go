package main

import (
	"math"
	"testing"
)

func TestTailIndexPercentileRule(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want int
	}{
		{5000, 0.99, 4949}, // enough samples: the true p99, 50 beyond
		{1000, 0.99, 989},  // exactly 10 beyond
		{500, 0.99, 489},   // lowered to keep 10 beyond
		{21, 0.99, 10},
		{11, 0.99, 0},
		{5, 0.99, 0}, // no percentile has 10 beyond: the smallest sample
		{100, 0.50, 49},
		{1, 0.50, 0},
	}
	for _, c := range cases {
		if got := tailIndex(c.n, c.p); got != c.want {
			t.Errorf("tailIndex(%d, %v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
	// The rule in general: at least 10 beyond, and no higher index that
	// also satisfies it and stays at or below the nominal percentile.
	for n := 11; n < 3000; n++ {
		i := tailIndex(n, 0.99)
		if n-1-i < minBeyond {
			t.Fatalf("n=%d: index %d leaves %d beyond", n, i, n-1-i)
		}
		nominal := int(math.Ceil(0.99*float64(n))) - 1
		if i != nominal && i+1 <= nominal && n-1-(i+1) >= minBeyond {
			t.Fatalf("n=%d: index %d is not the highest allowed", n, i)
		}
	}
}

func TestSummaryReportsQuantileUsed(t *testing.T) {
	var s samples
	for i := 1; i <= 500; i++ {
		s.add(float64(i))
	}
	sum := s.summary()
	if sum.N != 500 || sum.P50 != 250 || sum.P99 != 490 || sum.Max != 500 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.Q99 != 0.98 {
		t.Fatalf("reported quantile %v, want 0.98", sum.Q99)
	}
}
