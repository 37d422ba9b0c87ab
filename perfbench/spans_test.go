package main

import (
	"math"
	"testing"
	"time"

	"ocelot/internal/obs"
)

func rec(id, parent uint64, name string, start, end float64) obs.SpanRecord {
	t0 := time.Unix(1000, 0)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	return obs.SpanRecord{ID: id, Parent: parent, Name: name, Start: at(start), End: at(end)}
}

func TestSelfTime(t *testing.T) {
	spans := []obs.SpanRecord{
		rec(1, 0, "campaign", 0, 10),
		// Two overlapping children cover [1,5) once, not 6 s.
		rec(2, 1, "compress", 1, 4),
		rec(3, 1, "compress", 2, 5),
		// A disjoint child and one spilling past the parent's end.
		rec(4, 1, "transfer", 6, 8),
		rec(5, 1, "decompress", 9, 12),
		// Grandchildren count only against their own parent.
		rec(6, 4, "send", 6, 7.5),
	}
	self := selfTimes(spans)
	want := map[uint64]float64{1: 10 - 4 - 2 - 1, 2: 3, 3: 3, 4: 0.5, 5: 3, 6: 1.5}
	for id, w := range want {
		if got := self[id].Seconds(); math.Abs(got-w) > 1e-9 {
			t.Errorf("self time of span %d = %v, want %v", id, got, w)
		}
	}
	byName := selfSecondsByName(spans)
	if math.Abs(byName["compress"]-6) > 1e-9 || math.Abs(byName["campaign"]-3) > 1e-9 {
		t.Errorf("self seconds by name = %v", byName)
	}
	if d := durations(spans, "compress"); len(d) != 2 || d[0] != 3 || d[1] != 3 {
		t.Errorf("durations(compress) = %v", d)
	}
}
