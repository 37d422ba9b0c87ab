package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ocelot/internal/datagen"
	"ocelot/internal/grouping"
	"ocelot/internal/huffman"
	"ocelot/internal/integrity"
	"ocelot/internal/journal"
	"ocelot/internal/lossless"
	"ocelot/internal/metrics"
	"ocelot/internal/planner"
	"ocelot/internal/serve"
	"ocelot/internal/sz"
	"ocelot/internal/szx"
	"ocelot/internal/wan"
)

// Layer-pass repetition: every layer is timed over whole passes of the
// workload's fields, at least minReps passes and at least minLayerSec
// seconds, and reported as the median pass.
const (
	minReps     = 3
	minLayerSec = 0.25
)

// perPass times fn over repeated passes and returns the median of
// units ÷ pass seconds.
func perPass(units float64, fn func() error) (float64, error) {
	var rates []float64
	start := time.Now()
	for len(rates) < minReps || time.Since(start).Seconds() < minLayerSec {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		rates = append(rates, units/time.Since(t0).Seconds())
	}
	return median(rates), nil
}

// layerInput is the workload's data as the layer pass sees it: every
// field of every kind with the setting its campaign used, the streams the
// codecs produced and their reconstructions.
type layerInput struct {
	fields   []*datagen.Field
	settings []fieldSetting
	streams  [][]byte
	recon    [][]float64
	rawMB    float64
}

func flatten(refs []*reference) *layerInput {
	in := &layerInput{}
	for _, r := range refs {
		in.fields = append(in.fields, r.kind.fields...)
		in.settings = append(in.settings, r.settings...)
		in.streams = append(in.streams, r.streams...)
		in.recon = append(in.recon, r.recon...)
	}
	for _, f := range in.fields {
		in.rawMB += float64(f.RawBytes()) / 1e6
	}
	return in
}

// szConfig is the sz3 configuration for field i at its resolved bound.
func (in *layerInput) szConfig(i int) sz.Config {
	cfg := sz.DefaultConfig(in.settings[i].absEB)
	cfg.Predictor = in.settings[i].pred
	return cfg
}

// layerPass calls each layer package's exported functions on the
// workload's own fields and returns the per-layer rates, each codec rate
// also as a ratio to sz.CompressReference measured in the same pass.
func layerPass(ctx context.Context, cfg config, st *setupState, in *layerInput) (map[string]float64, error) {
	out := make(map[string]float64)
	n := len(in.fields)

	// sz: compress, the frozen reference compressor, decompress, quantize.
	szStreams := make([][]byte, n)
	var err error
	if out["sz.compress_mbps"], err = perPass(in.rawMB, func() error {
		for i, f := range in.fields {
			if szStreams[i], _, err = sz.Compress(f.Data, f.Dims, in.szConfig(i)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	refMBps, err := perPass(in.rawMB, func() error {
		for i, f := range in.fields {
			if _, _, err := sz.CompressReference(f.Data, f.Dims, in.szConfig(i)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i, f := range in.fields {
		if _, _, err := sz.Compress(f.Data, f.Dims, in.szConfig(i)); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&ms1)
	out["sz.compress_allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
	if out["sz.decompress_mbps"], err = perPass(in.rawMB, func() error {
		for _, s := range szStreams {
			if _, _, err := sz.Decompress(s); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	codes := make([][]int, n)
	if out["sz.quantize_mbps"], err = perPass(in.rawMB, func() error {
		for i, f := range in.fields {
			if codes[i], err = sz.SampledCodes(f.Data, f.Dims, in.szConfig(i), 1); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// huffman and lossless over the quantization codes.
	var msyms float64
	alphabet := make([]int, n)
	for i, c := range codes {
		msyms += float64(len(c)) / 1e6
		for _, v := range c {
			if v < 0 {
				return nil, fmt.Errorf("%s: negative quantization code %d", in.fields[i].ID(), v)
			}
			if v >= alphabet[i] {
				alphabet[i] = v + 1
			}
		}
	}
	huff := make([][]byte, n)
	if out["huffman.encode_msyms"], err = perPass(msyms, func() error {
		for i, c := range codes {
			if huff[i], err = huffman.EncodeWithFreqs(c, alphabet[i]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	for i, h := range huff {
		dec, err := huffman.Decode(h)
		if err != nil {
			return nil, err
		}
		if !equalInts(dec, codes[i]) {
			return nil, fmt.Errorf("%s: huffman round trip changed the codes", in.fields[i].ID())
		}
	}
	if out["huffman.decode_msyms"], err = perPass(msyms, func() error {
		for _, h := range huff {
			if _, err := huffman.Decode(h); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	var huffMB float64
	for _, h := range huff {
		huffMB += float64(len(h)) / 1e6
	}
	if out["lossless.deflate_mbps"], err = perPass(huffMB, func() error {
		for _, h := range huff {
			if _, err := lossless.Compress(h, lossless.Deflate); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// szx at the same bounds.
	szxStreams := make([][]byte, n)
	if out["szx.compress_mbps"], err = perPass(in.rawMB, func() error {
		for i, f := range in.fields {
			if szxStreams[i], err = szx.Compress(f.Data, f.Dims, in.settings[i].absEB); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if out["szx.decompress_mbps"], err = perPass(in.rawMB, func() error {
		for _, s := range szxStreams {
			if _, _, err := szx.Decompress(s); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	for _, name := range []string{"sz.compress", "sz.decompress", "sz.quantize", "lossless.deflate", "szx.compress", "szx.decompress"} {
		out[name+"_vs_ref"] = out[name+"_mbps"] / refMBps
	}
	out["huffman.encode_vs_ref"] = out["huffman.encode_msyms"] / refMBps
	out["huffman.decode_vs_ref"] = out["huffman.decode_msyms"] / refMBps

	// grouping and integrity over the campaign's own streams as one archive.
	members := make([]grouping.Member, n)
	sums := make([]uint32, n)
	for i, s := range in.streams {
		members[i] = grouping.Member{Name: in.fields[i].ID(), Data: s}
		sums[i] = integrity.Checksum(s)
	}
	archive, err := grouping.Pack(members)
	if err != nil {
		return nil, err
	}
	archMB := float64(len(archive)) / 1e6
	if out["grouping.pack_mbps"], err = perPass(archMB, func() error {
		_, err := grouping.Pack(members)
		return err
	}); err != nil {
		return nil, err
	}
	if out["grouping.unpack_mbps"], err = perPass(archMB, func() error {
		_, err := grouping.Unpack(archive)
		return err
	}); err != nil {
		return nil, err
	}
	framed := integrity.Wrap(archive, sums)
	if out["integrity.wrap_mbps"], err = perPass(archMB, func() error {
		integrity.Wrap(archive, sums)
		return nil
	}); err != nil {
		return nil, err
	}
	if out["integrity.verify_mbps"], err = perPass(archMB, func() error {
		_, _, err := integrity.Verify(framed)
		return err
	}); err != nil {
		return nil, err
	}

	// The bound audit over the reconstructions.
	if out["audit.maxabs_mbps"], err = perPass(in.rawMB, func() error {
		for i, f := range in.fields {
			if _, err := metrics.MaxAbsError(f.Data, in.recon[i]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// quality and planner: the workload's model, or one trained now by
	// the same procedure wan-planned trains in its set-up.
	model, trainSec := st.model, st.trainSec
	if model == nil {
		t0 := time.Now()
		if model, err = trainModel(st.kinds[0].refs, st.shrink*st.kinds[0].shrink, cfg.seed); err != nil {
			return nil, err
		}
		trainSec = time.Since(t0).Seconds()
	}
	out["quality.train_s"] = trainSec
	perSec, err := perPass(float64(n), func() error {
		for i, f := range in.fields {
			if _, err := model.EstimateField(f.Data, f.Dims, in.settings[i].relEB, sz.PredictorInterp); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["quality.estimate_ms"] = 1e3 / perSec
	link := st.link
	if link == nil {
		link = &wan.Link{Name: "bench-wan", BandwidthMBps: wanLinkMBps, Concurrency: workers}
	}
	popts := planner.Options{Candidates: plannerCandidates(), MinPSNR: plannerFloor, Link: link, Workers: workers, Seed: cfg.seed}
	plansPerSec, err := perPass(1, func() error {
		_, err := planner.Build(in.fields, model, popts)
		return err
	})
	if err != nil {
		return nil, err
	}
	out["planner.build_s"] = 1 / plansPerSec

	// Workloads that journal or schedule report those layers from their
	// own campaigns; the others probe them here.
	if cfg.workload == "cpu-mixed" {
		if err := journalProbe(cfg, in, out); err != nil {
			return nil, err
		}
	}
	if cfg.workload != "serve-tenants" {
		if err := serveProbe(ctx, in, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// journalProbeGroups is how many group/sent/ack record triples the
// journal probe appends (each an fsync'd write).
const journalProbeGroups = 40

// journalProbe appends a campaign's worth of fsync'd records to a fresh
// journal, timing each append.
func journalProbe(cfg config, in *layerInput, out map[string]float64) error {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.dir, "probe.ocjl")
	w, err := journal.Create(path)
	if err != nil {
		return err
	}
	defer os.Remove(path)
	defer w.Close()
	plans := make([]journal.FieldPlan, len(in.fields))
	for i, f := range in.fields {
		plans[i] = journal.FieldPlan{Name: f.ID(), RelEB: in.settings[i].relEB, Codec: in.settings[i].codec}
	}
	if err := w.Begin("probe", "pipelined", 0, 0, plans, nil); err != nil {
		return err
	}
	var ms []float64
	timed := func(fn func() error) error {
		t0 := time.Now()
		if err := fn(); err != nil {
			return err
		}
		ms = append(ms, time.Since(t0).Seconds()*1e3)
		return nil
	}
	for g := 0; g < journalProbeGroups; g++ {
		i := g % len(in.streams)
		sum := integrity.Checksum(in.streams[i])
		if err := timed(func() error {
			return w.Group(g, []int{i}, uint64(sum), sum, int64(len(in.streams[i])))
		}); err != nil {
			return err
		}
		if err := timed(func() error { return w.Sent(g) }); err != nil {
			return err
		}
		if err := timed(func() error { return w.Ack(g, uint64(sum), []uint64{uint64(sum)}) }); err != nil {
			return err
		}
	}
	out["journal.append_ms_p50"] = median(ms)
	out["journal.append_ms_p90"], _ = percentile(ms, tailQ)
	return w.Close()
}

// serveProbeRounds is how many campaigns per tenant the scheduler probe
// submits at once.
const serveProbeRounds = 12

// serveProbe submits a burst of one-field campaigns from the three
// tenants to a scheduler on an in-process link and times admission,
// queueing and completion.
func serveProbe(ctx context.Context, in *layerInput, out map[string]float64) error {
	smallest := in.fields[0]
	for _, f := range in.fields {
		if f.RawBytes() < smallest.RawBytes() {
			smallest = f
		}
	}
	tc := make(map[string]serve.TenantConfig, len(tenants))
	for _, t := range tenants {
		tc[t.name] = serve.TenantConfig{Weight: t.weight}
	}
	sched := serve.NewScheduler(serve.Config{Tenants: tc, MaxRunning: workers, QueueDepth: 64, BaseContext: ctx})
	defer sched.Close()
	type sub struct {
		tenant string
		job    *serve.Job
		t0     time.Time
	}
	var subs []sub
	var submitUS []float64
	for r := 0; r < serveProbeRounds; r++ {
		for _, t := range tenants {
			spec := specFor(t.codec)
			t0 := time.Now()
			j, err := sched.Submit(serve.Request{Tenant: t.name, Fields: []*datagen.Field{smallest}, Spec: spec})
			if err != nil {
				return fmt.Errorf("serve probe: %w", err)
			}
			submitUS = append(submitUS, time.Since(t0).Seconds()*1e6)
			subs = append(subs, sub{t.name, j, t0})
		}
	}
	var queued []float64
	perTenant := make(map[string][]float64)
	for _, s := range subs {
		if _, err := s.job.Wait(ctx); err != nil {
			return fmt.Errorf("serve probe: %w", err)
		}
		queued = append(queued, s.job.Status().QueuedSec)
	}
	for _, s := range subs {
		// Wait returned for every job above; Status is settled.
		st := s.job.Status()
		if st.Campaign != nil {
			perTenant[s.tenant] = append(perTenant[s.tenant], st.QueuedSec+st.Campaign.ElapsedSec)
		}
	}
	out["serve.submit_us"] = median(submitUS)
	out["serve.queued_s_p50"] = median(queued)
	out["serve.queued_s_p90"], _ = percentile(queued, tailQ)
	for _, t := range tenants {
		out["serve.tenant_p50_s."+t.name] = median(perTenant[t.name])
	}
	return nil
}
