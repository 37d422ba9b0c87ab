package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting matters
	}
	return xs
}

func TestPercentileTenBeyondRule(t *testing.T) {
	v, ok := percentile(seq(minTailSamples), tailQ)
	if !ok || v != 90 {
		t.Fatalf("p90 of 1..100 = %v ok=%v, want 90 with ten samples beyond", v, ok)
	}
	if _, ok := percentile(seq(minTailSamples-1), tailQ); ok {
		t.Fatalf("p90 of 99 samples has only nine beyond it but was accepted")
	}
	if v, ok := percentile(seq(20), 0.5); !ok || v != 10 {
		t.Fatalf("p50 of 1..20 = %v ok=%v, want 10 ok", v, ok)
	}
	if v, ok := percentile(nil, tailQ); ok || !math.IsNaN(v) {
		t.Fatalf("percentile of nothing = %v ok=%v, want NaN, false", v, ok)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median even = %v", m)
	}
}

func TestPipelineBound(t *testing.T) {
	cases := []struct {
		c, t float64
		g    int
		want float64
	}{
		{2, 1, 1, 3},    // one group: fully serial
		{2, 1, 4, 2.25}, // the shorter stage hides but for one group
		{1, 3, 2, 3.5},  // transfer-bound
		{1, 1, 0, 2},    // g < 1 is treated as one group
		{0, 5, 10, 5},   // nothing to hide
		{4, 4, 1000, 4.004},
	}
	for _, c := range cases {
		if got := pipelineBound(c.c, c.t, c.g); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("pipelineBound(%v,%v,%d) = %v, want %v", c.c, c.t, c.g, got, c.want)
		}
	}
}

func TestPairedOverhead(t *testing.T) {
	got := pairedOverhead([]float64{1.1, 2.2, 3.3}, []float64{1, 2, 3})
	if math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("paired overhead = %v, want 0.1", got)
	}
	if got := pairedOverhead(nil, nil); got != 0 {
		t.Fatalf("paired overhead of no pairs = %v", got)
	}
}
