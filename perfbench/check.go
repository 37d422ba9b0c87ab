package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"

	"ocelot/internal/core"
	"ocelot/internal/planner"
)

// fingerprint is what every campaign of one kind must reproduce exactly.
type fingerprint struct {
	ratio      float64
	grouped    int64
	compressed int64
	plan       uint64
	recon      uint64
}

// checker verifies each campaign's output and remembers the first
// campaign of each kind as the reference the rest must match.
type checker struct {
	mu       sync.Mutex
	first    map[string]fingerprint
	problems []string
}

func newChecker() *checker { return &checker{first: make(map[string]fingerprint)} }

// planDigest hashes the decisions a plan made, so two plans compare equal
// exactly when they would run the same campaign.
func planDigest(p *planner.Plan) uint64 {
	if p == nil {
		return 0
	}
	h := fnv.New64a()
	for _, f := range p.Fields {
		fmt.Fprintf(h, "%s|%g|%d|%s;", f.Field, f.RelEB, f.Predictor, f.Codec)
	}
	fmt.Fprintf(h, "%d|%d", p.GroupStrategy, p.GroupParam)
	return h.Sum64()
}

// campaign checks one finished campaign: its observed error is within the
// bound it promised, every corruption the link injected was detected
// (injected < 0 when the link injects none), and its ratio, archive
// bytes, plan and reconstruction digest match the kind's first campaign.
func (c *checker) campaign(kind string, res *core.CampaignResult, bound float64, injected int64) error {
	var errs []string
	if res.MaxRelError > bound*(1+1e-12) {
		errs = append(errs, fmt.Sprintf("max relative error %g exceeds bound %g", res.MaxRelError, bound))
	}
	if injected >= 0 && injected != int64(res.Retransmits) {
		errs = append(errs, fmt.Sprintf("link injected %d corruptions, campaign detected and resent %d", injected, res.Retransmits))
	}
	fp := fingerprint{ratio: res.Ratio, grouped: res.GroupedBytes, compressed: res.CompressedBytes,
		plan: planDigest(res.Plan), recon: res.ReconDigest}
	c.mu.Lock()
	defer c.mu.Unlock()
	if ref, ok := c.first[kind]; !ok {
		c.first[kind] = fp
	} else if fp != ref {
		errs = append(errs, fmt.Sprintf("output differs from the first %s campaign: %+v vs %+v", kind, fp, ref))
	}
	if len(errs) == 0 {
		return nil
	}
	msg := kind + ": " + strings.Join(errs, "; ")
	c.problems = append(c.problems, msg)
	return errors.New(msg)
}

// fail records a problem found outside any one campaign.
func (c *checker) fail(format string, args ...interface{}) {
	c.mu.Lock()
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
	c.mu.Unlock()
}

// ok reports whether no check has failed.
func (c *checker) ok() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.problems) == 0
}
