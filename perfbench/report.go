package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"
)

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object the benchmark's last output line carries.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is a run's result plus what it found along the way.
type report struct {
	result
	order    []string
	problems []string
	warnings []string
}

// run sets a workload up, measures it and checks its outputs. An error
// means the benchmark itself could not run; failed checks are reported
// in the result instead.
func run(ctx context.Context, cfg config) (*report, error) {
	// An untraced run repeats set-up and reports the median; a traced run
	// reports no setup_s, so it sets up once.
	var setupSecs []float64
	var st *setupState
	setupStart := time.Now()
	for {
		if st != nil && st.sched != nil {
			st.sched.Close()
		}
		t0 := time.Now()
		var err error
		if st, err = doSetup(cfg); err != nil {
			return nil, err
		}
		setupSecs = append(setupSecs, time.Since(t0).Seconds())
		if cfg.trace || (len(setupSecs) >= setupRepeats && time.Since(setupStart).Seconds() >= setupMinSec) {
			break
		}
	}
	if st.sched != nil {
		defer st.sched.Close()
	}

	chk := newChecker()
	var m *measured
	var err error
	if cfg.workload == "serve-tenants" {
		m, err = openLoop(ctx, cfg, st, chk)
	} else {
		m, err = closedLoop(ctx, cfg, st, chk)
	}
	if err != nil {
		return nil, err
	}

	// Rebuild each kind's campaign from the layer packages: the bytes
	// must match what the campaigns shipped, and the reconstructions give
	// the quality figures and the layer pass's inputs.
	var refs []*reference
	for _, k := range st.kinds {
		var first *sample
		for i := range m.samples {
			if s := &m.samples[i]; s.kind == k.name && s.err == nil {
				first = s
				break
			}
		}
		if first == nil {
			chk.fail("no %s campaign succeeded", k.name)
			continue
		}
		ref, err := buildReference(k, first.res)
		if err != nil {
			chk.fail("%v", err)
			continue
		}
		refs = append(refs, ref)
	}

	rep := &report{result: result{Metrics: make(map[string]metricValue)}}
	for _, s := range m.samples {
		rep.Attempted++
		if s.err != nil {
			rep.Failed++
		}
	}
	var values map[string]float64
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		if len(refs) == len(st.kinds) {
			values, err = layerMetrics(ctx, cfg, st, m, refs)
			if err != nil {
				chk.fail("layer pass: %v", err)
			}
		}
	} else {
		values = endToEndMetrics(cfg, m, refs, setupSecs, &rep.warnings)
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			chk.fail("metric %s not measured", d.name)
			v = 0
		}
		rep.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		rep.order = append(rep.order, d.name)
	}
	chk.mu.Lock()
	rep.problems = append(rep.problems, chk.problems...)
	chk.mu.Unlock()
	rep.Correct = len(rep.problems) == 0 && rep.Failed == 0
	return rep, nil
}

// endToEndMetrics computes what a user of the system sees, from the
// untraced campaigns.
func endToEndMetrics(cfg config, m *measured, refs []*reference, setupSecs []float64, warnings *[]string) map[string]float64 {
	var lat []float64
	var raw, comp, ok float64
	minPSNR := math.Inf(1)
	for _, s := range m.samples {
		if s.traced {
			continue
		}
		if s.err != nil {
			// A failed or refused campaign misses any latency limit.
			lat = append(lat, cfg.hardStop().Seconds())
			continue
		}
		lat = append(lat, s.latency)
		ok++
		raw += float64(s.res.RawBytes)
		comp += float64(s.res.CompressedBytes)
		if s.res.Planned {
			minPSNR = math.Min(minPSNR, s.res.MinPSNR)
		}
	}
	for _, r := range refs {
		minPSNR = math.Min(minPSNR, r.minPSNR)
	}
	p90, enough := percentile(lat, tailQ)
	if !enough {
		*warnings = append(*warnings, fmt.Sprintf("campaign_s_p90 over %d samples has fewer than %d beyond it", len(lat), tailMinBeyond))
	}
	return map[string]float64{
		"setup_s":           median(setupSecs),
		"campaign_s_p50":    median(lat),
		"campaign_s_p90":    p90,
		"effective_mbps":    raw / 1e6 / m.wallSec,
		"compression_ratio": raw / comp,
		"psnr_min_db":       minPSNR,
		"success_rate":      ok / float64(len(lat)),
		"peak_rss_mb":       peakRSSMB(),
	}
}

// layerMetrics computes the per-layer metrics of a traced run: the layer
// pass over the workload's fields, and the spans and results of its
// traced campaigns.
func layerMetrics(ctx context.Context, cfg config, st *setupState, m *measured, refs []*reference) (map[string]float64, error) {
	out, err := layerPass(ctx, cfg, st, flatten(refs))
	if err != nil {
		return nil, err
	}
	out["datagen.generate_s"] = st.genSec
	out["host.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	out["host.nproc"] = float64(runtime.NumCPU())

	var compress, pack, transfer, decompress, overlap, boundFrac, retrans []float64
	self := make(map[string][]float64)
	var sends, journalMS []float64
	for _, s := range m.samples {
		if !s.traced || s.err != nil {
			continue
		}
		r := s.res
		compress = append(compress, r.CompressSec)
		pack = append(pack, r.PackSec)
		transfer = append(transfer, r.TransferSec)
		decompress = append(decompress, r.DecompressSec)
		overlap = append(overlap, r.OverlapSec)
		boundFrac = append(boundFrac, r.WallSec/pipelineBound(r.CompressSec, r.TransferSec, r.Groups))
		retrans = append(retrans, float64(r.Retransmits))
		byName := selfSecondsByName(s.spans)
		for _, name := range []string{"campaign", "compress", "pack", "transfer", "send", "decompress", "verify"} {
			self[name] = append(self[name], byName[name])
		}
		sends = append(sends, durations(s.spans, "bench.send")...)
		for _, name := range []string{"journal.sent", "journal.ack"} {
			for _, d := range durations(s.spans, name) {
				journalMS = append(journalMS, d*1e3)
			}
		}
	}
	out["core.compress_s"] = median(compress)
	out["core.pack_s"] = median(pack)
	out["core.transfer_s"] = median(transfer)
	out["core.decompress_s"] = median(decompress)
	out["core.overlap_s"] = median(overlap)
	out["core.bound_frac"] = median(boundFrac)
	out["integrity.retransmits"] = mean(retrans)
	for name, v := range self {
		out["self."+name+"_s"] = median(v)
	}
	out["wan.send_s_p50"] = median(sends)
	out["wan.link_util"] = 0
	if m.linkMBps > 0 && m.shipSec > 0 {
		out["wan.link_util"] = float64(m.shipped) / 1e6 / (m.linkMBps * m.shipSec)
	}
	if len(journalMS) > 0 {
		out["journal.append_ms_p50"] = median(journalMS)
		out["journal.append_ms_p90"], _ = percentile(journalMS, tailQ)
	}

	// Tracing overhead: each traced campaign pairs with the next untraced
	// campaign of its kind.
	var tracedLat, untracedLat []float64
	pending := make(map[string][]float64)
	var lagMax float64
	for _, s := range m.samples {
		lagMax = math.Max(lagMax, s.lagSec)
		if s.err != nil {
			continue
		}
		if s.traced {
			pending[s.kind] = append(pending[s.kind], s.latency)
		} else if q := pending[s.kind]; len(q) > 0 {
			tracedLat = append(tracedLat, q[0])
			untracedLat = append(untracedLat, s.latency)
			pending[s.kind] = q[1:]
		}
	}
	out["obs.trace_overhead_frac"] = pairedOverhead(tracedLat, untracedLat)
	out["bench.gen_lag_s_max"] = lagMax
	out["bench.cpu_s_per_campaign"] = m.cpuSec / float64(len(m.samples))

	if cfg.workload == "serve-tenants" {
		var queued, submitUS []float64
		perTenant := make(map[string][]float64)
		for _, s := range m.samples {
			submitUS = append(submitUS, s.submitSec*1e6)
			if s.err != nil {
				continue
			}
			queued = append(queued, s.queuedSec)
			perTenant[s.kind] = append(perTenant[s.kind], s.latency)
		}
		out["serve.submit_us"] = median(submitUS)
		out["serve.queued_s_p50"] = median(queued)
		out["serve.queued_s_p90"], _ = percentile(queued, tailQ)
		for _, t := range tenants {
			out["serve.tenant_p50_s."+t.name] = median(perTenant[t.name])
		}
	}
	return out, nil
}

// mean is the arithmetic mean; NaN for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
