package main

import (
	"fmt"
	"math"
)

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of xs: the
// smallest sample with at least ceil(q*n) samples at or below it. It
// keeps every sample, so the answer is exact (no bucketing error), and
// finds it by quickselect in O(n). xs is reordered in place.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	k := rank(q, n) - 1
	lo, hi := 0, n-1
	for lo < hi {
		// Median-of-three pivot keeps sorted and reversed inputs linear.
		mid := lo + (hi-lo)/2
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[mid]
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for xs[j] > pivot {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return xs[k]
		}
	}
	return xs[k]
}

// rank is the 1-based nearest rank of the q-quantile of n samples,
// ceil(q·n), robust to q·n landing a rounding error above an integer.
func rank(q float64, n int) int {
	return max(1, min(n, int(math.Ceil(q*float64(n)-1e-9))))
}

// tailLadder lists the percentiles a summary may report as its tail,
// highest first.
var tailLadder = []float64{0.9999, 0.999, 0.99, 0.9, 0.75}

// summary is how every timing is reported: the median, the highest
// percentile that still has at least ten samples beyond it, and the
// sample count.
type summary struct {
	N       int
	Median  float64
	TailPct float64 // 0 when fewer than 40 samples leave no valid tail
	Tail    float64
}

// summarize computes a summary of xs (reordered in place).
func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Median = quantile(xs, 0.5)
	for _, p := range tailLadder {
		if len(xs)-rank(p, len(xs)) >= 10 {
			s.TailPct, s.Tail = p, quantile(xs, p)
			break
		}
	}
	return s
}

func (s summary) String() string {
	if s.N == 0 {
		return "n=0"
	}
	if s.TailPct == 0 {
		return fmt.Sprintf("median %.4g (n=%d, too few samples for a tail)", s.Median, s.N)
	}
	return fmt.Sprintf("median %.4g, p%s %.4g (n=%d)", s.Median, pctLabel(s.TailPct), s.Tail, s.N)
}

func pctLabel(p float64) string {
	return fmt.Sprintf("%g", math.Round(p*1e6)/1e4)
}

// median returns the median of xs without reordering the caller's slice.
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	return quantile(c, 0.5)
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// rng is splitmix64: every generated input and arrival schedule derives
// from the workload seed through it.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// fork derives an independent stream for a named purpose, so adding a
// consumer of randomness never shifts another consumer's draws.
func (r rng) fork(tag string) rng {
	h := uint64(r)
	for i := 0; i < len(tag); i++ {
		h = (h ^ uint64(tag[i])) * 0x100000001B3
	}
	s := rng(h)
	s.next()
	return s
}
