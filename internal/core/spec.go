package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"ocelot/internal/codec"
	"ocelot/internal/datagen"
	"ocelot/internal/faas"
	"ocelot/internal/grouping"
	"ocelot/internal/obs"
	"ocelot/internal/planner"
	"ocelot/internal/quality"
	"ocelot/internal/sentinel"
	"ocelot/internal/sz"
)

// Engine selects how a campaign's stages execute.
type Engine uint8

const (
	// EnginePipelined streams compress → pack → transfer → decompress
	// through bounded channels, so a packed group ships while later fields
	// are still compressing (the default).
	EnginePipelined Engine = iota
	// EngineBarrier packs only after every field has compressed, so groups
	// follow grouping.Plan exactly.
	EngineBarrier
	// EngineSequential adds a hard barrier between the transfer and
	// decompress phases too: the pre-pipelining baseline overlap
	// benchmarks compare against.
	EngineSequential
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	switch e {
	case EnginePipelined:
		return "pipelined"
	case EngineBarrier:
		return "barrier"
	case EngineSequential:
		return "sequential"
	default:
		return fmt.Sprintf("engine(%d)", uint8(e))
	}
}

// ParseEngine resolves an engine by name ("" selects pipelined).
func ParseEngine(name string) (Engine, error) {
	switch name {
	case "", "pipelined":
		return EnginePipelined, nil
	case "barrier":
		return EngineBarrier, nil
	case "sequential":
		return EngineSequential, nil
	default:
		return 0, fmt.Errorf("core: unknown engine %q (have: pipelined, barrier, sequential)", name)
	}
}

// CampaignSpec is the single description of a campaign: what to compress
// (bounds, predictor, codec), how to pack it, which engine executes the
// stages, which transport ships the archives, how compression fans out,
// and whether the predictive planner chooses per-field configurations
// first. It is what Submit, Run, PlanSpec, and the serve daemon's
// scheduler all consume.
//
// The zero value is not runnable: RelErrorBound must be positive unless
// Adaptive is set (the planner then assigns per-field bounds).
type CampaignSpec struct {
	// RelErrorBound is applied relative to each field's value range.
	// Adaptive campaigns may leave it zero: the plan assigns bounds.
	RelErrorBound float64
	// Predictor for the SZ pipeline; 0 = interp. Ignored by codecs without
	// a predictor stage.
	Predictor sz.Predictor
	// Codec names the registered compressor every field uses ("" = sz3).
	// Adaptive campaigns override it per field with the plan's decisions.
	Codec string
	// Workers bounds compression/decompression parallelism; ≤ 0 = 4.
	Workers int

	// GroupStrategy and GroupParam control packing; 0 = ByWorldSize with
	// world = Workers.
	GroupStrategy grouping.Strategy
	GroupParam    int64

	// Engine selects barrier, pipelined, or sequential stage execution.
	Engine Engine
	// Transport ships packed archives; nil means NopTransport (in-process).
	Transport Transport
	// TransferStreams is the number of goroutines offering archives to the
	// transport at once — the Globus "concurrency" knob. ≤ 0 defaults to
	// the transport's own hint (a simulated WAN hints its link's
	// concurrency), else 4. Streams beyond the link's concurrency do not
	// add bandwidth: SimulatedWANTransport admits at most
	// Link.Concurrency sends at a time and queues the rest. Adaptive plans
	// assume the campaign offers the link its full concurrency, so leave
	// it at 0 unless you mean to starve the link.
	TransferStreams int
	// StageBuffer is the capacity of the channels between stages; ≤ 0
	// means the worker count (enough slack to decouple stage cadences
	// without unbounded buffering).
	StageBuffer int
	// TransportWeight is the campaign's fair-share weight on transports
	// implementing WeightedTransport (≤ 0 = unweighted Send). The serve
	// scheduler sets it to the owning tenant's weight so concurrent
	// campaigns split a shared link proportionally.
	TransportWeight float64

	// ChunkMB, when > 0, enables chunk-parallel compression: every field is
	// decomposed into ~ChunkMB-of-raw-data blocks (sz.PlanChunks) that are
	// batch-submitted to an in-process funcX-style endpoint and compressed
	// by its workers concurrently, so a single wide field no longer
	// serializes on one worker. The assembled chunked container is
	// byte-identical for any worker count (see sz.AssembleChunks). 0 keeps
	// compression monolithic; negative or non-finite values are rejected.
	ChunkMB float64
	// CompressWorkers is the fan-out endpoint's worker count (the effective
	// compression parallelism when ChunkMB > 0); ≤ 0 defaults to Workers.
	CompressWorkers int
	// ChunkEndpoint tunes the deployed fan-out endpoint — cold/warm start
	// costs (the fabric's container-warming model) and queue depth. Its
	// Workers field is overridden by CompressWorkers. Ignored when
	// ChunkMB ≤ 0.
	ChunkEndpoint faas.EndpointConfig

	// Adaptive runs the predictive planner first: per-field bounds,
	// predictors, codecs, and the grouping knob come from the plan, and
	// the result reports predicted vs. actual.
	Adaptive bool
	// Model is the trained quality model adaptive campaigns predict with.
	// nil degenerates gracefully to the most conservative candidate.
	Model *quality.Model
	// Planner tunes the adaptive decision pass; Link and Workers default
	// from the campaign context when unset.
	Planner planner.Options

	// Journal, when non-empty, is the path of a durable campaign manifest
	// (internal/journal): every packed, sent, and verified group is recorded
	// with write+fsync before the campaign proceeds, so a crashed or
	// canceled campaign can later be resumed from exactly what completed.
	// Journaling also enables the per-field reconstruction digest pass
	// (CampaignResult.ReconDigest).
	Journal string
	// ResumeFrom, when non-empty, loads an existing journal and re-executes
	// only the fields no acked group covers, reproducing the uninterrupted
	// campaign's ReconDigest. The journal's spec fingerprint must match this
	// spec (journal.ErrSpecMismatch otherwise). Usually set equal to Journal
	// so the resumed incarnation extends the same file.
	ResumeFrom string
	// JournalMeta is caller bookkeeping stamped into the journal's begin
	// record — the serve daemon stores the original submit request here so
	// its recovery pass can reconstruct campaigns from journals alone.
	JournalMeta map[string]string
	// Retry tunes transient-failure retry with exponential backoff for the
	// transfer stage and the chunk fan-out. The zero value keeps fail-fast
	// semantics (a single attempt).
	Retry sentinel.RetryPolicy
	// Obs attaches an observability bundle (internal/obs): when set, the
	// campaign records spans for every lifecycle step — plan, per-field
	// compress (down to chunk fan-out), pack, per-group transfer including
	// each retry/failover attempt and journal ack, decompress, verify —
	// on Obs.Tracer, and instruments counters/histograms on Obs.Metrics
	// (snapshotted into CampaignResult.Metrics). nil costs only pointer
	// checks on the instrumented paths.
	Obs *obs.Obs
	// FallbackTransports are failover endpoints: when the primary Transport
	// exhausts its retry budget — or fails permanently — each fallback is
	// tried in order under the same policy. The terminal error is a
	// classified *sentinel.PermanentError.
	FallbackTransports []Transport

	// NoIntegrity disables the end-to-end checksum layer: packed archives
	// ship unframed and the verify stage decompresses whatever arrives. On
	// a corrupting link this is the silent-corruption testbed — garbage
	// bytes reach the codecs undetected. The default (false) frames every
	// archive with CRC-32C digests at pack time and verifies the frame
	// before decompressing, so in-flight corruption is detected and the
	// affected group retransmitted under Retry.
	NoIntegrity bool
	// BoundAudit tunes the post-decompress pointwise bound audit and its
	// quarantine escape; the zero value audits every point and fails the
	// campaign on a violation (the historical behaviour).
	BoundAudit BoundAudit

	// Now injects a clock for tests; nil = time.Now.
	Now func() time.Time
}

// BoundAudit is the SpecOption controlling the post-decompress audit: after
// each field decompresses, its reconstruction is checked pointwise against
// the promised absolute error bound — the codec's contract is verified
// against the data, not trusted.
type BoundAudit struct {
	// Stride samples every Stride-th point (plus the final point); ≤ 1
	// audits every point. Sampling weakens the per-point guarantee in
	// exchange for less verify-stage CPU on very large fields.
	Stride int
	// Quarantine, when set, converts a bound violation from a campaign
	// failure into a degraded-field recovery: the offending field is
	// re-shipped lossless (raw float64 bits through the deflate escape,
	// integrity-framed), replaces the lossy reconstruction bit-exactly,
	// and is recorded in CampaignResult.DegradedFields.
	Quarantine bool
}

// Validate fast-fails the spec errors a daemon wants to reject at submit
// time: empty codec names resolve, while unknown codecs, engines, and
// grouping strategies, missing or non-finite bounds, and bad chunk sizes
// do not wait until mid-pipeline.
func (s CampaignSpec) Validate() error {
	_, err := resolve(s)
	return err
}

// resolvedSpec is a CampaignSpec with every default filled in. resolve
// computes it once per campaign; the plan pass and the stage graph read
// their settings from here and never re-default.
type resolvedSpec struct {
	// spec is the caller's spec, read only for settings without a default
	// (bounds, predictor, engine, journal paths, weight, obs, ...).
	spec CampaignSpec

	workers int
	now     func() time.Time
	// strategy and param are the grouping knob; an adaptive plan (or a
	// resumed adaptive journal) replaces them with its own decision.
	strategy grouping.Strategy
	param    int64
	buffer   int    // capacity of the channels between stages
	codec    string // normalized campaign codec name

	// transports is the primary transport followed by the failover
	// endpoints; streams is the transfer stage's concurrency.
	transports []Transport
	streams    int

	// chunkBytes > 0 fans compression out chunk-wise over an endpoint of
	// compressWorkers workers tuned by endpoint; all zero when off.
	chunkBytes      int64
	compressWorkers int
	endpoint        faas.EndpointConfig

	planner   planner.Options      // plan-pass options, defaulted from the campaign
	retry     sentinel.RetryPolicy // spec.Retry, metered on the spec's registry
	integrity bool                 // frame archives with CRC-32C digests
}

// resolve validates spec and fills every default. It is pure: Validate,
// Submit, Run, and PlanSpec all call it, and only the stage graph touches
// the transports it names.
func resolve(s CampaignSpec) (*resolvedSpec, error) {
	if math.IsNaN(s.RelErrorBound) || math.IsInf(s.RelErrorBound, 0) {
		return nil, fmt.Errorf("core: relative error bound %g is not finite", s.RelErrorBound)
	}
	if s.RelErrorBound <= 0 && !s.Adaptive {
		return nil, errors.New("core: relative error bound must be positive")
	}
	if s.Engine > EngineSequential {
		return nil, fmt.Errorf("core: unknown engine %v", s.Engine)
	}
	if s.BoundAudit.Stride < 0 {
		return nil, fmt.Errorf("core: bound audit stride %d is negative", s.BoundAudit.Stride)
	}
	if !(s.ChunkMB >= 0) || math.IsInf(s.ChunkMB, 1) {
		return nil, fmt.Errorf("core: chunk size %g MB must be finite and non-negative", s.ChunkMB)
	}
	codecName, err := codec.Normalize(s.Codec)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	rs := &resolvedSpec{
		spec:      s,
		workers:   s.Workers,
		now:       s.Now,
		strategy:  s.GroupStrategy,
		param:     s.GroupParam,
		buffer:    s.StageBuffer,
		codec:     codecName,
		streams:   s.TransferStreams,
		planner:   s.Planner,
		retry:     s.Retry,
		integrity: !s.NoIntegrity,
	}
	if rs.workers <= 0 {
		rs.workers = 4
	}
	if rs.now == nil {
		rs.now = time.Now
	}
	switch rs.strategy {
	case 0:
		rs.strategy = grouping.ByWorldSize
	case grouping.ByWorldSize, grouping.ByTargetSize, grouping.SingleArchive:
	default:
		return nil, fmt.Errorf("core: unknown strategy %v", rs.strategy)
	}
	if rs.param <= 0 {
		rs.param = int64(rs.workers)
	}
	if rs.buffer <= 0 {
		rs.buffer = rs.workers
	}

	primary := s.Transport
	if primary == nil {
		primary = NopTransport{}
	}
	rs.transports = append([]Transport{primary}, s.FallbackTransports...)
	if rs.streams <= 0 {
		rs.streams = defaultStreams(primary)
	}

	// The plan predicts the campaign that will actually run: its assumed
	// parallelism follows the fan-out endpoint when chunking is on, its
	// chunk granularity and dispatch cost follow the endpoint, and its link
	// defaults to the simulated transport's.
	plannerWorkers := rs.workers
	if s.ChunkMB > 0 {
		rs.chunkBytes = int64(s.ChunkMB * 1e6)
		rs.compressWorkers = s.CompressWorkers
		if rs.compressWorkers <= 0 {
			rs.compressWorkers = rs.workers
		}
		rs.endpoint = s.ChunkEndpoint
		rs.endpoint.Workers = rs.compressWorkers
		plannerWorkers = rs.compressWorkers
		if rs.planner.ChunkBytes == 0 {
			rs.planner.ChunkBytes = rs.chunkBytes
		}
		if rs.planner.ChunkDispatchSec == 0 {
			rs.planner.ChunkDispatchSec = s.ChunkEndpoint.WarmStart.Seconds()
		}
	}
	if rs.planner.Workers <= 0 {
		rs.planner.Workers = plannerWorkers
	}
	if st, ok := primary.(*SimulatedWANTransport); ok && rs.planner.Link == nil {
		rs.planner.Link = st.Link
	}

	if s.Obs != nil {
		rs.retry.Metrics = s.Obs.Metrics
		rs.endpoint.Metrics = s.Obs.Metrics
	}
	return rs, nil
}

// PlanSpec runs only the plan stage of an adaptive spec: the cheap
// sampling pass over every field, quality predictions across the
// candidate grid, and the grouping decision. The returned plan is what an
// Adaptive Submit/Run would execute.
func PlanSpec(fields []*datagen.Field, spec CampaignSpec) (*planner.Plan, error) {
	rs, err := resolve(spec)
	if err != nil {
		return nil, err
	}
	return planner.Build(fields, spec.Model, rs.planner)
}
