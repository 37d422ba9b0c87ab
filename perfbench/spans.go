package main

import (
	"sort"
	"time"

	"ocelot/internal/obs"
)

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by the union of its children's intervals (clipped
// to the span). Overlapping children — parallel stage workers — are
// counted once, so self time never goes negative.
func selfTimes(spans []obs.SpanRecord) map[uint64]time.Duration {
	children := make(map[uint64][]obs.SpanRecord)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.End.Sub(s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of [start, end) covered by the union of the
// spans' intervals.
func covered(start, end time.Time, spans []obs.SpanRecord) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(spans))
	for _, c := range spans {
		a, b := c.Start, c.End
		if a.Before(start) {
			a = start
		}
		if b.After(end) {
			b = end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		if i == 0 || v.a.After(curB) {
			if i > 0 {
				total += curB.Sub(curA)
			}
			curA, curB = v.a, v.b
			continue
		}
		if v.b.After(curB) {
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		total += curB.Sub(curA)
	}
	return total
}

// selfSecondsByName sums self time per span name, in seconds.
func selfSecondsByName(spans []obs.SpanRecord) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += self[s.ID].Seconds()
	}
	return out
}

// durations returns the durations in seconds of the spans named name.
func durations(spans []obs.SpanRecord, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.End.Sub(s.Start).Seconds())
		}
	}
	return out
}
