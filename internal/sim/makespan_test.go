package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestMakespanBasics(t *testing.T) {
	if m := Makespan(nil, 4); m != 0 {
		t.Fatalf("empty makespan = %v", m)
	}
	if m := Makespan([]float64{5}, 10); m != 5 {
		t.Fatalf("single job = %v", m)
	}
	// 4 equal jobs on 2 workers → 2 each.
	if m := Makespan([]float64{1, 1, 1, 1}, 2); m != 2 {
		t.Fatalf("makespan = %v", m)
	}
	// One dominant job bounds the makespan.
	if m := Makespan([]float64{10, 1, 1, 1}, 4); m != 10 {
		t.Fatalf("makespan = %v", m)
	}
}

// Properties: makespan ≥ max(cost), ≥ sum/workers, ≤ sum.
func TestMakespanBoundsQuick(t *testing.T) {
	f := func(raw []uint16, w uint8) bool {
		if len(raw) == 0 {
			return true
		}
		workers := int(w)%16 + 1
		costs := make([]float64, len(raw))
		var sum, max float64
		for i, r := range raw {
			costs[i] = float64(r) / 100
			sum += costs[i]
			if costs[i] > max {
				max = costs[i]
			}
		}
		m := Makespan(costs, workers)
		lower := math.Max(max, sum/float64(workers))
		return m >= lower-1e-9 && m <= sum+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMakespanMoreWorkersNeverSlower(t *testing.T) {
	costs := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	prev := math.Inf(1)
	for _, w := range []int{1, 2, 4, 8, 16} {
		m := Makespan(costs, w)
		if m > prev+1e-9 {
			t.Fatalf("makespan grew with workers: %v -> %v at %d", prev, m, w)
		}
		prev = m
	}
}

// The heap picks a different least-loaded worker than a linear scan when
// loads tie, but every LPT step still grows a minimum load by the same
// cost, so the result must match the scan bit for bit.
func TestMakespanMatchesLinearScan(t *testing.T) {
	scan := func(costs []float64, workers int) float64 {
		sorted := append([]float64(nil), costs...)
		sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
		load := make([]float64, workers)
		for _, c := range sorted {
			min := 0
			for w := 1; w < workers; w++ {
				if load[w] < load[min] {
					min = w
				}
			}
			load[min] += c
		}
		var mk float64
		for _, v := range load {
			mk = math.Max(mk, v)
		}
		return mk
	}
	f := func(raw []uint8, w uint8) bool {
		workers := int(w)%12 + 1
		costs := make([]float64, len(raw))
		for i, r := range raw {
			costs[i] = 0.02 + float64(r%8)/7 // few distinct values: many ties
		}
		return Makespan(costs, workers) == scan(costs, workers)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Non-positive worker counts mean one worker: every cost runs in series.
func TestMakespanNonPositiveWorkers(t *testing.T) {
	costs := []float64{3, 1, 4, 1, 5}
	for _, w := range []int{0, -2} {
		if m := Makespan(costs, w); m != 14 {
			t.Fatalf("workers %d: makespan = %v, want 14", w, m)
		}
	}
}

// Makespan sorts a copy: the caller's cost order is left as it was.
func TestMakespanKeepsInputOrder(t *testing.T) {
	costs := []float64{1, 9, 2, 8, 3}
	want := append([]float64(nil), costs...)
	Makespan(costs, 2)
	for i := range costs {
		if costs[i] != want[i] {
			t.Fatalf("costs reordered: %v, want %v", costs, want)
		}
	}
}
