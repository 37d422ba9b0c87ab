package sim

import "sort"

// Makespan is the completion time of longest-processing-time-first list
// scheduling: costs (seconds) are taken in descending order and each goes
// to a least-loaded of `workers` parallel workers (≤ 0 means 1). A min-heap
// of worker loads keeps large inventories at O(n log w). Which tied worker
// receives a cost never changes the multiset of loads, so the result is
// exact and deterministic.
func Makespan(costs []float64, workers int) float64 {
	if workers <= 0 {
		workers = 1
	}
	if workers > len(costs) {
		workers = len(costs)
	}
	if workers == 0 {
		return 0
	}
	sorted := make([]float64, len(costs))
	copy(sorted, costs)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	load := make([]float64, workers)
	for _, c := range sorted {
		// The root is a least-loaded worker: add, then push it down.
		load[0] += c
		siftDown(load)
	}
	var mk float64
	for _, v := range load {
		if v > mk {
			mk = v
		}
	}
	return mk
}

// siftDown restores the min-heap property after load[0] grew.
func siftDown(load []float64) {
	n := len(load)
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && load[l] < load[min] {
			min = l
		}
		if r < n && load[r] < load[min] {
			min = r
		}
		if min == i {
			return
		}
		load[i], load[min] = load[min], load[i]
		i = min
	}
}
