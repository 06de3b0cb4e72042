package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// minBeyond is how many samples must lie above a reported tail percentile:
// a "p99" over fewer than 1000 samples is reported at the highest
// percentile that still has minBeyond samples beyond it.
const minBeyond = 10

// samples collects raw observations (latencies in milliseconds, sizes,
// counts). Safe for concurrent use.
type samples struct {
	mu sync.Mutex
	v  []float64
}

func (s *samples) add(x float64) {
	s.mu.Lock()
	s.v = append(s.v, x)
	s.mu.Unlock()
}

func (s *samples) addDur(d time.Duration) { s.add(ms(d)) }

// sorted returns a sorted copy of the observations.
func (s *samples) sorted() []float64 {
	s.mu.Lock()
	out := append([]float64(nil), s.v...)
	s.mu.Unlock()
	sort.Float64s(out)
	return out
}

func (s *samples) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.v)
}

// summary is a distribution reduced to the figures the benchmark reports.
type summary struct {
	N    int     `json:"n"`
	P50  float64 `json:"p50"`
	P99  float64 `json:"p99"`
	Q99  float64 `json:"p99_quantile"` // the percentile "p99" actually reports
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

func (s *samples) summary() summary {
	v := s.sorted()
	if len(v) == 0 {
		return summary{}
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	i := tailIndex(len(v), 0.99)
	return summary{
		N:    len(v),
		P50:  v[tailIndex(len(v), 0.50)],
		P99:  v[i],
		Q99:  float64(i+1) / float64(len(v)),
		Mean: sum / float64(len(v)),
		Max:  v[len(v)-1],
	}
}

// tailIndex is the percentile rule: the index into n sorted samples of
// the p-quantile, lowered to the highest percentile that still leaves at
// least minBeyond samples above it. With too few samples for any such
// percentile it falls back to the smallest sample.
func tailIndex(n int, p float64) int {
	if n <= 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(n))) - 1
	if lim := n - 1 - minBeyond; i > lim {
		i = lim
	}
	if i < 0 {
		i = 0
	}
	return i
}

// median of a small set of floats (setup repetitions, per-second series).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when nothing was observed.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
