package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"ocelot/internal/core"
	"ocelot/internal/datagen"
	"ocelot/internal/dtree"
	"ocelot/internal/obs"
	"ocelot/internal/planner"
	"ocelot/internal/quality"
	"ocelot/internal/sentinel"
	"ocelot/internal/serve"
	"ocelot/internal/sz"
	"ocelot/internal/wan"
)

// fieldRef names one synthetic field.
type fieldRef struct{ app, name string }

// mixFields is the cpu-mixed and wan-planned field set: two fields from
// each of five applications, covering the smooth, lognormal and wave
// textures the codecs respond to differently.
var mixFields = []fieldRef{
	{"CESM", "FLDSC"}, {"CESM", "TMQ"},
	{"Nyx", "baryon_density"}, {"Nyx", "temperature"},
	{"ISABEL", "Pf48"}, {"ISABEL", "QVAPORf48"},
	{"RTM", "snap-0594"}, {"RTM", "snap-1800"},
	{"Miranda", "density"}, {"Miranda", "pressure"},
}

// tenantDef is one serve-tenants tenant: its fair-share weight, codec,
// the fields each of its campaigns moves and how much smaller than
// serveShrink they are. The fields are ones whose compressed size barely
// depends on the seed, so link time does not either.
type tenantDef struct {
	name   string
	weight float64
	codec  string
	fields []fieldRef
	shrink int
}

var tenants = []tenantDef{
	{"climate", 2, "sz3", []fieldRef{{"CESM", "FLDSC"}, {"CESM", "PSL"}}, 1},
	{"cosmology", 1, "szx", []fieldRef{{"Nyx", "velocity_x"}, {"Nyx", "velocity_y"}}, 2},
	{"seismic", 1, "sz3", []fieldRef{{"RTM", "snap-1048"}}, 1},
}

// Workload constants. The link rates are fixed, never calibrated from a
// run's own output, so a better compression ratio still shortens a
// campaign; they were sized on a 2-core host so that, at the commit that
// introduced the benchmark, transfer took about twice as long as
// compression on wan-planned and the shared link was about 70% busy on
// serve-tenants.
const (
	relEB         = 1e-3
	workers       = 2 // per campaign and serve MaxRunning: ≤ nproc on the reference host
	mixShrink     = 6
	wanShrink     = 12
	serveShrink   = 8
	trainShrink   = 2 // stand-ins for model training are this much smaller again
	wanLinkMBps   = 3.8
	wanCorrupt    = 0.1
	plannerFloor  = 70.0 // dB
	serveLinkMBps = 0.58
	serveInterval = 150 * time.Millisecond
	// Set-up repeats at least setupRepeats times and for at least
	// setupMinSec, and setup_s is the median repeat.
	setupRepeats = 3
	setupMinSec  = 2.0
	// Input draws per closed-loop run: campaigns cycle through this many
	// field sets, each synthesized from its own seed, so a run's figures
	// average over several draws instead of hanging on one.
	mixDraws = 1
	wanDraws = 4
)

// plannerEBs is the wan-planned candidate grid's bounds (sz3 interp).
var plannerEBs = []float64{1e-4, 3e-4, 1e-3, 3e-3, 1e-2}

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// minSamples is the campaign count a run reaches before it stops,
	// even past seconds; minTailSamples gives campaign_s_p90 its ten
	// samples beyond. Smoke tests lower it.
	minSamples int
	// shrink scales every field's shrink factor (1 = as benchmarked);
	// smoke tests raise it for tiny inputs.
	shrink int
	// dir is where journals go; it must be inside the checkout.
	dir string
}

// hardStop is the longest a run's measured window may last, whatever
// minSamples asks, so a slow host still ends well inside its time limit.
func (c config) hardStop() time.Duration {
	s := 3 * c.seconds
	if s > 90 {
		s = 90
	}
	if s < c.seconds {
		s = c.seconds
	}
	return time.Duration(s * float64(time.Second))
}

// kind is one family of identical campaigns: one input draw of a
// closed-loop workload, or one serve tenant. Every campaign of a kind
// must produce the same bytes.
type kind struct {
	name   string
	refs   []fieldRef
	shrink int // relative to setupState.shrink
	codec  string
	fields []*datagen.Field
}

// setupState is what set-up builds before any timing starts.
type setupState struct {
	kinds    []kind
	model    *quality.Model
	link     *wan.Link
	sched    *serve.Scheduler
	shared   *tracedTransport // the scheduler's transport in a traced serve run
	shrink   int              // the fields' shrink factor
	genSec   float64
	trainSec float64
}

// drawSeed is the datagen seed of input draw j of a run seeded seed.
func drawSeed(seed int64, j int) int64 { return seed*1000 + int64(j) }

// trainDraw is the draw the model's training stand-ins come from.
const trainDraw = 999

// generate synthesizes refs at the given shrink and seed.
func generate(refs []fieldRef, shrink int, seed int64) ([]*datagen.Field, error) {
	out := make([]*datagen.Field, 0, len(refs))
	for _, r := range refs {
		f, err := datagen.Generate(r.app, r.name, shrink, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// plannerCandidates is the wan-planned grid: sz3 interp at each bound.
func plannerCandidates() []planner.Candidate {
	out := make([]planner.Candidate, len(plannerEBs))
	for i, eb := range plannerEBs {
		out[i] = planner.Candidate{RelEB: eb, Predictor: sz.PredictorInterp, Codec: "sz3"}
	}
	return out
}

// trainModel fits the quality model on shrunk stand-ins of refs, drawn
// from a seed no measured field uses so ground truth is not memorized
// point for point.
func trainModel(refs []fieldRef, shrink int, seed int64) (*quality.Model, error) {
	train, err := generate(refs, shrink*trainShrink, drawSeed(seed, trainDraw))
	if err != nil {
		return nil, err
	}
	return planner.TrainFromSweep(train, plannerCandidates(), dtree.Params{MaxDepth: 14})
}

// doSetup builds one workload's inputs: fields, the trained model and the
// started scheduler, timing field synthesis and training separately.
func doSetup(cfg config) (*setupState, error) {
	st := &setupState{}
	t0 := time.Now()
	switch cfg.workload {
	case "cpu-mixed", "wan-planned":
		draws := mixDraws
		st.shrink = mixShrink * cfg.shrink
		if cfg.workload == "wan-planned" {
			st.shrink, draws = wanShrink*cfg.shrink, wanDraws
		}
		for j := 0; j < draws; j++ {
			fields, err := generate(mixFields, st.shrink, drawSeed(cfg.seed, j))
			if err != nil {
				return nil, err
			}
			st.kinds = append(st.kinds, kind{name: fmt.Sprintf("%s/draw%d", cfg.workload, j),
				refs: mixFields, shrink: 1, codec: "sz3", fields: fields})
		}
	case "serve-tenants":
		st.shrink = serveShrink * cfg.shrink
		for _, t := range tenants {
			fields, err := generate(t.fields, st.shrink*t.shrink, drawSeed(cfg.seed, 0))
			if err != nil {
				return nil, err
			}
			st.kinds = append(st.kinds, kind{name: t.name, refs: t.fields, shrink: t.shrink, codec: t.codec, fields: fields})
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	st.genSec = time.Since(t0).Seconds()

	switch cfg.workload {
	case "wan-planned":
		t1 := time.Now()
		m, err := trainModel(mixFields, st.shrink, cfg.seed)
		if err != nil {
			return nil, err
		}
		st.model = m
		st.trainSec = time.Since(t1).Seconds()
		st.link = &wan.Link{Name: "bench-wan", BandwidthMBps: wanLinkMBps / float64(cfg.shrink*cfg.shrink),
			Concurrency: workers, Faults: &wan.Faults{CorruptProb: wanCorrupt, Seed: cfg.seed}}
	case "serve-tenants":
		st.link = &wan.Link{Name: "bench-shared", BandwidthMBps: serveLinkMBps / float64(cfg.shrink*cfg.shrink),
			Concurrency: workers}
		tc := make(map[string]serve.TenantConfig, len(tenants))
		for _, t := range tenants {
			tc[t.name] = serve.TenantConfig{Weight: t.weight}
		}
		if err := os.MkdirAll(filepath.Join(cfg.dir, "serve"), 0o755); err != nil {
			return nil, err
		}
		var tr core.Transport = &core.SimulatedWANTransport{Link: st.link, Timescale: 1}
		if cfg.trace {
			st.shared = &tracedTransport{inner: tr}
			tr = st.shared
		}
		st.sched = serve.NewScheduler(serve.Config{
			Transport:  tr,
			Tenants:    tc,
			MaxRunning: workers,
			QueueDepth: 64,
			JournalDir: filepath.Join(cfg.dir, "serve"),
		})
	}
	return st, nil
}

// sample is one campaign as the benchmark saw it.
type sample struct {
	seq       int // issue order
	kind      string
	traced    bool
	latency   float64 // seconds: call to return (closed), due to done (open)
	res       *core.CampaignResult
	err       error
	spans     []obs.SpanRecord
	queuedSec float64 // serve only
	submitSec float64 // serve only
	lagSec    float64 // generator lateness (open) or gap since the last return (closed)
}

// measured is a run's measured window.
type measured struct {
	samples  []sample
	wallSec  float64
	cpuSec   float64
	shipped  int64   // bytes the traced transports delivered
	shipSec  float64 // span of time those deliveries covered
	linkMBps float64 // 0 for the nop link
}

// specFor is a fixed-bound pipelined campaign with the given codec.
func specFor(codec string) core.CampaignSpec {
	return core.CampaignSpec{RelErrorBound: relEB, Codec: codec, Engine: core.EnginePipelined, Workers: workers}
}

// wanSpec is campaign i of wan-planned: adaptive, journaled and retrying,
// over a fresh transport on st.link whose corruption draws are seeded by
// the run's seed and i, so campaigns see different corruption and the
// run averages over them. The transport counts its injected corruptions.
func wanSpec(cfg config, st *setupState, i int) (core.CampaignSpec, *core.SimulatedWANTransport) {
	link := *st.link
	faults := *link.Faults
	faults.Seed = cfg.seed*1_000_003 + int64(i)
	link.Faults = &faults
	sim := &core.SimulatedWANTransport{Link: &link, Timescale: 1, Metrics: obs.NewRegistry()}
	return core.CampaignSpec{
		Engine:    core.EnginePipelined,
		Workers:   workers,
		Adaptive:  true,
		Model:     st.model,
		Transport: sim,
		Planner: planner.Options{
			Candidates: plannerCandidates(),
			MinPSNR:    plannerFloor,
			Link:       st.link,
			Workers:    workers,
			Seed:       cfg.seed,
		},
		Retry: sentinel.RetryPolicy{MaxAttempts: 6, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond},
	}, sim
}

// tracedTurn reports whether campaign i of a traced run is traced.
// Campaigns cycle through the kinds; whole rounds alternate between
// traced and untraced, so every traced campaign pairs with the untraced
// campaign of its kind one round later.
func tracedTurn(cfg config, st *setupState, i int) bool {
	return cfg.trace && (i/len(st.kinds))%2 == 0
}

// closedLoop runs one client that starts each campaign when the previous
// returns, cycling through the run's input draws, until both seconds and
// minSamples are reached.
func closedLoop(ctx context.Context, cfg config, st *setupState, chk *checker) (*measured, error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	m := &measured{}
	var traced []*tracedTransport
	cpu0 := cpuSeconds()
	start := time.Now()
	last := start
	for i := 0; ; i++ {
		el := time.Since(start)
		if (el.Seconds() >= cfg.seconds && i >= cfg.minSamples) || el >= cfg.hardStop() {
			break
		}
		k := st.kinds[i%len(st.kinds)]
		var spec core.CampaignSpec
		var sim *core.SimulatedWANTransport
		if cfg.workload == "wan-planned" {
			spec, sim = wanSpec(cfg, st, i)
			spec.Journal = filepath.Join(cfg.dir, fmt.Sprintf("c%06d.ocjl", i))
			m.linkMBps = st.link.BandwidthMBps
		} else {
			spec = specFor(k.codec)
		}
		s := sample{seq: i, kind: k.name, traced: tracedTurn(cfg, st, i)}
		runCtx := ctx
		var root *obs.Span
		if s.traced {
			tt := &tracedTransport{inner: spec.Transport}
			if spec.Transport == nil {
				tt.inner = core.NopTransport{}
			}
			traced = append(traced, tt)
			spec.Transport = tt
			spec.Obs = &obs.Obs{Tracer: obs.NewTracer()}
			runCtx, root = spec.Obs.Tracer.StartSpan(ctx, "bench.run", obs.Int("campaign", int64(i)))
		}
		t0 := time.Now()
		s.lagSec = t0.Sub(last).Seconds()
		s.res, s.err = core.Run(runCtx, k.fields, spec)
		last = time.Now()
		s.latency = last.Sub(t0).Seconds()
		root.End()
		if s.traced {
			s.spans = spec.Obs.Tracer.Spans()
		}
		var injected int64 = -1
		if sim != nil {
			injected = sim.Metrics.Counter("wan_corruptions_injected_total").Value()
		}
		if s.err == nil {
			s.err = chk.campaign(k.name, s.res, campaignBound(s.res), injected)
		}
		if spec.Journal != "" {
			if err := os.Remove(spec.Journal); err != nil && !errors.Is(err, os.ErrNotExist) {
				return nil, err
			}
		}
		m.samples = append(m.samples, s)
	}
	m.wallSec = time.Since(start).Seconds()
	m.cpuSec = cpuSeconds() - cpu0
	for _, tt := range traced {
		b, sec := tt.shipped()
		m.shipped += b
		m.shipSec += sec
	}
	return m, nil
}

// campaignBound is the relative bound a campaign promised: the workload
// bound, or the loosest bound its plan assigned.
func campaignBound(res *core.CampaignResult) float64 {
	if res == nil || res.Plan == nil {
		return relEB
	}
	b := 0.0
	for _, f := range res.Plan.Fields {
		if f.RelEB > b {
			b = f.RelEB
		}
	}
	return b
}

// openLoop submits one campaign per serveInterval to the scheduler,
// round-robin over the tenants, on a fixed schedule whatever the
// scheduler's state. Each campaign is timed from when it was due, so a
// stall is charged to every campaign queued behind it; a refused
// submission counts as failed.
func openLoop(ctx context.Context, cfg config, st *setupState, chk *checker) (*measured, error) {
	m := &measured{linkMBps: st.link.BandwidthMBps}
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	cpu0 := cpuSeconds()
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * serveInterval)
		el := due.Sub(start)
		if (el.Seconds() >= cfg.seconds && i >= cfg.minSamples && i%len(st.kinds) == 0) || el >= cfg.hardStop() {
			break
		}
		if d := time.Until(due); d > 0 {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(d):
			}
		}
		k := st.kinds[i%len(st.kinds)]
		s := sample{seq: i, kind: k.name, traced: tracedTurn(cfg, st, i)}
		spec := specFor(k.codec)
		var root *obs.Span
		if s.traced {
			spec.Obs = &obs.Obs{Tracer: obs.NewTracer()}
			_, root = spec.Obs.Tracer.StartSpan(ctx, "bench.submit", obs.Int("campaign", int64(i)), obs.String("tenant", k.name))
		}
		t0 := time.Now()
		s.lagSec = t0.Sub(due).Seconds()
		job, err := st.sched.Submit(serve.Request{Tenant: k.name, Fields: k.fields, Spec: spec})
		s.submitSec = time.Since(t0).Seconds()
		if err != nil {
			root.End()
			s.err = fmt.Errorf("submit %s: %w", k.name, err)
			s.latency = time.Since(due).Seconds()
			mu.Lock()
			m.samples = append(m.samples, s)
			mu.Unlock()
			continue
		}
		wg.Add(1)
		go func(s sample, k kind) {
			defer wg.Done()
			s.res, s.err = job.Wait(ctx)
			s.latency = time.Since(due).Seconds()
			root.End()
			s.queuedSec = job.Status().QueuedSec
			if s.traced {
				s.spans = spec.Obs.Tracer.Spans()
			}
			if s.err == nil {
				s.err = chk.campaign(k.name, s.res, relEB, -1)
			}
			mu.Lock()
			m.samples = append(m.samples, s)
			mu.Unlock()
		}(s, k)
	}
	wg.Wait()
	sort.Slice(m.samples, func(a, b int) bool { return m.samples[a].seq < m.samples[b].seq })
	m.wallSec = time.Since(start).Seconds()
	m.cpuSec = cpuSeconds() - cpu0
	if st.shared != nil {
		m.shipped, m.shipSec = st.shared.shipped()
	}
	return m, nil
}
