package main

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// oracle is the nearest-rank quantile of a fully sorted copy.
func oracle(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	k := int(math.Ceil(q*float64(len(s))-1e-9)) - 1
	return s[max(0, min(len(s)-1, k))]
}

func TestQuantileMatchesSortedOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	qs := []float64{0.001, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1}
	shapes := map[string]func(n int) []float64{
		"uniform": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = r.Float64()
			}
			return xs
		},
		"heavy-tail": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = math.Exp(r.NormFloat64() * 3)
			}
			return xs
		},
		"few-distinct": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(r.Intn(3))
			}
			return xs
		},
		"sorted": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(i)
			}
			return xs
		},
		"reversed": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(n - i)
			}
			return xs
		},
	}
	for name, gen := range shapes {
		for _, n := range []int{1, 2, 3, 10, 101, 1000, 20000} {
			xs := gen(n)
			for _, q := range qs {
				got := quantile(slices.Clone(xs), q)
				if want := oracle(xs, q); got != want {
					t.Fatalf("%s n=%d q=%v: quantile %v, sorted oracle %v", name, n, q, got, want)
				}
			}
		}
	}
}

func TestSummaryTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{39, 0}, {40, 0.75}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10000, 0.999}, {100000, 0.9999}} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		s := summarize(xs)
		if s.TailPct != c.want || s.N != c.n {
			t.Errorf("n=%d: tail p%v (n=%d), want p%v", c.n, s.TailPct, s.N, c.want)
		}
		if s.TailPct > 0 && c.n-int(math.Ceil(s.TailPct*float64(c.n)-1e-9)) < 10 {
			t.Errorf("n=%d: tail p%v leaves fewer than ten samples beyond it", c.n, s.TailPct)
		}
	}
}

func TestSeedDerivesInputs(t *testing.T) {
	a, b := rng(7).fork("x"), rng(7).fork("x")
	c := rng(8).fork("x")
	if a.next() != b.next() {
		t.Fatal("the same seed gave different draws")
	}
	if a.next() == c.next() {
		t.Fatal("different seeds gave the same draw")
	}
}
