package core

import (
	"context"
	"fmt"

	"ocelot/internal/datagen"
	"ocelot/internal/grouping"
	"ocelot/internal/journal"
	"ocelot/internal/obs"
	"ocelot/internal/planner"
	"ocelot/internal/sz"

	// Link every registered codec into campaign binaries so codec names
	// resolve and mixed-codec archives decompress via registry dispatch.
	_ "ocelot/internal/szx"
)

// CampaignResult reports a real campaign run.
type CampaignResult struct {
	Files    int
	RawBytes int64
	// Codec is the registry name the campaign compressed with; "mixed"
	// when a plan assigned different codecs to different fields (the
	// per-field detail is in Plan.Fields).
	Codec           string
	CompressedBytes int64
	Groups          int
	GroupedBytes    int64
	GroupBytes      []int64 // realized per-archive sizes, in emit order
	Ratio           float64
	CompressSec     float64
	DecompressSec   float64
	MaxRelError     float64 // max observed |err| / field range, ≤ RelErrorBound on success
	Metadata        string

	// Stage-engine accounting (populated by every engine).
	Pipelined   bool    // true when run by EnginePipelined
	PackSec     float64 // time spent packing group archives
	TransferSec float64 // transfer-stage span (first send start to last send end)
	LinkSec     float64 // transport-reported seconds (e.g. simulated WAN time)
	WallSec     float64 // end-to-end wall time of the campaign

	// Chunk fan-out accounting (populated when CampaignSpec.ChunkMB > 0).
	Chunks          int // total compression chunks across all fields
	CompressWorkers int // fan-out endpoint worker count (0 = fan-out off)
	// ReconDigest is an FNV-64a digest of every field's reconstruction,
	// folded in field order (independent of completion order). Two
	// fan-out campaigns over the same fields produced bit-identical
	// decompressed output iff their digests match — the check the
	// parallel-compression artifact uses to prove worker count never
	// changes the bytes. Journaled and resumed campaigns digest too (see
	// below); zero otherwise, so plain monolithic runs do not pay the
	// digest pass.
	ReconDigest uint64
	// OverlapSec is the measured concurrency between stages: the sum of
	// per-stage spans minus the run's span. Zero means strictly serial
	// phases; the pipelined engine's win is this time, hidden.
	OverlapSec float64
	Stages     []StageTiming

	// Fault-tolerance accounting (populated when the spec journals,
	// resumes, or retries — see CampaignSpec.Journal/ResumeFrom/Retry).
	// ReconDigest is also populated for journaled and resumed campaigns: a
	// resumed campaign folds the journal's recorded digests for skipped
	// fields with fresh digests for re-executed ones, reproducing the
	// uninterrupted run's digest bit for bit.
	Resumed       bool  // this run resumed from a journal
	SkippedGroups int   // journal-acked groups the resume did not re-execute
	SkippedBytes  int64 // their archive bytes — work the resume skipped
	Retries       int   // transient retries across transfer sends and fan-out
	Failovers     int   // endpoint failovers across transfer sends

	// End-to-end integrity accounting (populated when the integrity frame
	// is on — the default; see CampaignSpec.NoIntegrity/BoundAudit).
	// SentBytes-style accounting stays exact under corruption:
	// campaign_sent_bytes_total = GroupedBytes + RetransmitBytes +
	// DegradedBytes, since every delivery is counted once.
	CorruptGroups   int      // groups whose delivery failed checksum verification at least once
	Retransmits     int      // successful re-deliveries of corrupted groups
	RetransmitBytes int64    // bytes those re-deliveries shipped
	DegradedFields  []string // members the bound audit quarantined and re-shipped lossless
	DegradedBytes   int64    // bytes the lossless quarantine escapes shipped

	// Planner accounting (populated by Adaptive campaigns): the plan's
	// predictions beside the measured outcome, so every adaptive run
	// reports predicted vs. actual.
	Planned         bool    // true when a predictive plan chose the configs
	PlanSec         float64 // seconds spent sampling, predicting, deciding
	MinPSNR         float64 // measured min PSNR across fields (planned runs only)
	PredRatio       float64 // plan's predicted compression ratio (vs. Ratio)
	PredCompressSec float64 // predicted compress wall (vs. CompressSec)
	PredTransferSec float64 // predicted transfer makespan (vs. LinkEstSec)
	PredWallSec     float64 // predicted pipelined wall (vs. WallSec)
	// LinkEstSec is the link model's transfer makespan over the REALIZED
	// archive sizes — the honest "actual" beside PredTransferSec, since
	// LinkSec sums per-send seconds (overlap double-counted) while the
	// prediction is a makespan.
	LinkEstSec float64
	Plan       *planner.Plan // the full per-field decision table

	// Metrics is the inline flattened snapshot of the spec's metrics
	// registry at campaign completion (nil unless CampaignSpec.Obs carries
	// one): every counter/gauge keyed `name{labels}`, histograms as
	// `_sum`/`_count` pairs — the same series GET /metrics exposes from
	// the daemon, without running one.
	Metrics map[string]float64 `json:",omitempty"`
}

// Run executes a campaign described by spec and blocks until it finishes
// — Submit followed by waiting for the handle, for every one-shot caller
// (CLI, examples, benchmarks). Cancellation via ctx unwinds the stages
// promptly, including mid-send on simulated WAN transports; Run returns
// once they have.
func Run(ctx context.Context, fields []*datagen.Field, spec CampaignSpec) (*CampaignResult, error) {
	c, err := Submit(ctx, fields, spec)
	if err != nil {
		return nil, err
	}
	<-c.Done()
	return c.Result()
}

// execute runs one campaign for handle c: it loads the resume manifest,
// runs the adaptive plan pass when the spec asks for one, then the stage
// graph. rs is a private copy, so the plan's grouping decision may
// overwrite its knob.
func (c *Campaign) execute(ctx context.Context, rs resolvedSpec) (*CampaignResult, error) {
	st := runState{handle: c}
	if path := rs.spec.ResumeFrom; path != "" {
		m, err := journal.Load(path)
		if err != nil {
			return nil, fmt.Errorf("core: resume: %w", err)
		}
		if len(m.Fields) != len(c.fields) {
			return nil, fmt.Errorf("core: journal %s records %d fields, campaign has %d",
				path, len(m.Fields), len(c.fields))
		}
		st.manifest = m
	}
	if !rs.spec.Adaptive {
		return runCampaign(ctx, c.fields, &rs, st)
	}

	c.setState(CampaignPlanning)
	planStart := rs.now()
	_, planSpan := rs.spec.Obs.StartSpan(ctx, "plan", obs.Int("fields", int64(len(c.fields))))
	popts := rs.planner
	if m := st.manifest; m != nil {
		// Resumed adaptive campaign: execution settings are pinned from the
		// journal's begin record — never re-planned, so the resumed half is
		// byte-compatible with the completed half. The plan pass only
		// re-prices the REMAINING work (Done mask) so predicted-vs-actual
		// stays meaningful for the resume itself.
		rs.strategy, rs.param = grouping.Strategy(m.Strategy), m.GroupParam
		st.perField = make([]fieldSetting, len(m.Fields))
		for i, fp := range m.Fields {
			st.perField[i] = fieldSetting{relEB: fp.RelEB, predictor: sz.Predictor(fp.Predictor), codec: fp.Codec}
		}
		popts.Done, _ = m.DoneFields()
	}
	plan, err := planner.Build(c.fields, rs.spec.Model, popts)
	planSpan.End()
	if err != nil {
		return nil, err
	}
	planSec := rs.now().Sub(planStart).Seconds()
	if err := ctx.Err(); err != nil {
		// A campaign cancelled during its plan pass must not start moving
		// bytes.
		return nil, err
	}
	if st.manifest == nil {
		rs.strategy, rs.param = plan.GroupStrategy, plan.GroupParam
		st.perField = make([]fieldSetting, len(plan.Fields))
		for i, fp := range plan.Fields {
			st.perField[i] = fieldSetting{relEB: fp.RelEB, predictor: fp.Predictor, codec: fp.Codec}
		}
	}

	res, err := runCampaign(ctx, c.fields, &rs, st)
	if err != nil {
		return nil, err
	}
	res.Planned = true
	res.PlanSec = planSec
	res.Plan = plan
	res.PredRatio = plan.PredRatio
	res.PredCompressSec = plan.PredCompressSec
	res.PredTransferSec = plan.PredTransferSec
	res.PredWallSec = plan.PredWallSec
	if link := rs.planner.Link; link != nil && len(res.GroupBytes) > 0 {
		est, err := link.Estimate(res.GroupBytes, rs.planner.Seed)
		if err != nil {
			return nil, err
		}
		res.LinkEstSec = est.Seconds
	}
	return res, nil
}
