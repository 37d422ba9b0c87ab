package main

import (
	"context"
	"testing"
)

// TestSmokeWorkloads runs every workload on tiny inputs, untraced and
// traced: all checks pass and every metric of the run's kind is printed.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs campaigns")
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w.name, seed: 7, seconds: 1, trace: trace,
				minSamples: 8, shrink: 4, dir: t.TempDir()}
			rep, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < cfg.minSamples {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%v",
					w.name, trace, rep.Correct, rep.Attempted, rep.Failed, rep.problems)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(rep.Metrics) != len(defs) {
				t.Fatalf("%s trace=%v: %d metrics, want %d", w.name, trace, len(rep.Metrics), len(defs))
			}
		}
	}
}

// TestCheckerRejects proves the checker is live: a campaign
// whose error exceeds the bound it is checked against fails.
func TestCheckerRejects(t *testing.T) {
	cfg := config{workload: "cpu-mixed", seed: 7, seconds: 0.01, minSamples: 1, shrink: 8, dir: t.TempDir()}
	st, err := doSetup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	chk := newChecker()
	m, err := closedLoop(context.Background(), cfg, st, chk)
	if err != nil {
		t.Fatal(err)
	}
	res := m.samples[0].res
	if err := newChecker().campaign("k", res, res.MaxRelError/2, -1); err == nil {
		t.Fatalf("a campaign over its bound passed the check")
	}
	if err := newChecker().campaign("k", res, relEB, int64(res.Retransmits)+1); err == nil {
		t.Fatalf("an undetected injected corruption passed the check")
	}
	c := newChecker()
	if err := c.campaign("k", res, relEB, -1); err != nil {
		t.Fatal(err)
	}
	other := *res
	other.GroupedBytes++
	if err := c.campaign("k", &other, relEB, -1); err == nil {
		t.Fatalf("a campaign with different archive bytes passed the check")
	}
}
