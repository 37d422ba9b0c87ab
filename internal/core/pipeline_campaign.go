package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"ocelot/internal/codec"
	"ocelot/internal/datagen"
	"ocelot/internal/grouping"
	"ocelot/internal/integrity"
	"ocelot/internal/journal"
	"ocelot/internal/lossless"
	"ocelot/internal/metrics"
	"ocelot/internal/obs"
	"ocelot/internal/pipeline"
	"ocelot/internal/sentinel"
	"ocelot/internal/sz"
)

// StageTiming is the per-stage ledger threaded into CampaignResult.
type StageTiming = pipeline.StageStats

// campaignMetrics holds the campaign counters resolved once per run, so
// the stage hot paths pay an atomic add — not a registry lookup — per
// event. All fields are nil (no-op) when the spec carries no registry.
type campaignMetrics struct {
	rawBytes        *obs.Counter   // campaign_raw_bytes_total
	compressedBytes *obs.Counter   // campaign_compressed_bytes_total
	sentBytes       *obs.Counter   // campaign_sent_bytes_total
	groups          *obs.Counter   // campaign_groups_total
	chunks          *obs.Counter   // campaign_chunks_total
	fields          *obs.Counter   // campaign_fields_total
	sendSeconds     *obs.Histogram // campaign_send_seconds
	corruptions     *obs.Counter   // campaign_corruption_detected_total
	retransmits     *obs.Counter   // campaign_retransmits_total
	auditFailures   *obs.Counter   // campaign_bound_audit_failures_total
	degradedFields  *obs.Counter   // campaign_degraded_fields_total
}

// newCampaignMetrics resolves the campaign metric family against the
// bundle's registry (all-nil when absent).
func newCampaignMetrics(o *obs.Obs) campaignMetrics {
	return campaignMetrics{
		rawBytes:        o.Counter("campaign_raw_bytes_total"),
		compressedBytes: o.Counter("campaign_compressed_bytes_total"),
		sentBytes:       o.Counter("campaign_sent_bytes_total"),
		groups:          o.Counter("campaign_groups_total"),
		chunks:          o.Counter("campaign_chunks_total"),
		fields:          o.Counter("campaign_fields_total"),
		sendSeconds:     o.Histogram("campaign_send_seconds"),
		corruptions:     o.Counter("campaign_corruption_detected_total"),
		retransmits:     o.Counter("campaign_retransmits_total"),
		auditFailures:   o.Counter("campaign_bound_audit_failures_total"),
		degradedFields:  o.Counter("campaign_degraded_fields_total"),
	}
}

// campaignProgress carries the live mid-run counters a Campaign handle's
// Status surfaces; the stage workers update it atomically.
type campaignProgress struct {
	sentBytes     atomic.Int64 // archive bytes accepted by the transport
	sentGroups    atomic.Int64 // archives shipped so far
	retries       atomic.Int64 // transient retries across transfer + fan-out
	failovers     atomic.Int64 // endpoint failovers across sends
	corruptGroups atomic.Int64 // groups whose delivery failed checksum verification
	retransmits   atomic.Int64 // successful re-deliveries of corrupted groups
	degraded      atomic.Int64 // fields quarantined lossless by the bound audit
}

// fieldSetting is one field's planned compression configuration.
type fieldSetting struct {
	relEB     float64
	predictor sz.Predictor
	codec     string // registry name; "" inherits the campaign codec
}

// Items flowing between stages.
type compressedItem struct {
	idx    int
	stream []byte
}

type packedGroup struct {
	id      int
	idxs    []int
	archive []byte
}

type sentGroup struct {
	packedGroup
	// delivered is what actually arrived at the destination — the verify
	// stage checksums these bytes, not the send buffer, so in-flight
	// corruption is observable. nil (plain Transport) means the archive
	// arrived as offered.
	delivered []byte
}

type verifiedGroup struct {
	members int
	maxRel  float64
	minPSNR float64
	// Integrity ledger: corrupt marks a group whose delivery failed
	// checksum verification at least once; retransmits/retransmitBytes
	// count its successful re-deliveries; degraded names members the bound
	// audit quarantined, with degradedBytes their lossless re-ship cost.
	corrupt         bool
	retransmits     int
	retransmitBytes int64
	degraded        []string
	degradedBytes   int64
}

// packState accumulates grouping bookkeeping; it is only touched by the
// single-worker pack stage, so no locking is needed until after Wait.
type packState struct {
	names           []string
	streams         map[int][]byte // barrier mode: held until flush
	plan            [][]int        // realized groups, in emit order
	groupBytes      []int64        // realized archive sizes, in emit order
	compressedBytes int64
	groupedBytes    int64
	nextID          int
	// idOffset is the first group id of this incarnation: resumed campaigns
	// number new groups after the journal's MaxGroupID so ids stay unique
	// across incarnations.
	idOffset int
	// journal, when set, durably records each packed group before it is
	// offered to the transport.
	journal *journal.Writer
	// obs records one "pack" span per emitted group (nil = off).
	obs *obs.Obs
	// integrity wraps each packed archive in a CRC-32C frame at pack time;
	// the journal's group digest then covers the framed bytes — exactly
	// what the transport ships and the verify stage checks.
	integrity bool
}

func (ps *packState) emitGroup(ctx context.Context, idxs []int, emit func(packedGroup) error) error {
	_, span := ps.obs.StartSpan(ctx, "pack",
		obs.Int("group", int64(ps.nextID)), obs.Int("members", int64(len(idxs))))
	defer span.End()
	members := make([]grouping.Member, 0, len(idxs))
	for _, i := range idxs {
		members = append(members, grouping.Member{Name: ps.names[i], Data: ps.streams[i]})
		delete(ps.streams, i)
	}
	arch, err := grouping.Pack(members)
	if err != nil {
		return err
	}
	var frameCRC uint32
	if ps.integrity {
		// Frame the archive at pack time: per-member CRC-32C digests plus a
		// payload digest, all checked before a byte is decompressed. The
		// journal digest below covers the framed bytes — the exact wire
		// payload — so journal, frame, and transport agree on one identity.
		sums := make([]uint32, len(members))
		for k, m := range members {
			sums[k] = integrity.Checksum(m.Data)
		}
		frameCRC = integrity.Checksum(arch)
		arch = integrity.Wrap(arch, sums)
	}
	span.Annotate(obs.Int("bytes", int64(len(arch))))
	ps.groupedBytes += int64(len(arch))
	ps.plan = append(ps.plan, idxs)
	ps.groupBytes = append(ps.groupBytes, int64(len(arch)))
	g := packedGroup{id: ps.nextID, idxs: idxs, archive: arch}
	ps.nextID++
	if ps.journal != nil {
		if err := ps.journal.Group(g.id, idxs, byteDigest(arch), frameCRC, int64(len(arch))); err != nil {
			return err
		}
	}
	return emit(g)
}

// runState is what one execution adds to its resolved spec: the loaded
// resume manifest (nil on a fresh run), the adaptive plan's per-field
// settings (nil unless adaptive), and the handle whose hooks observe the
// run and whose progress counters it advances.
type runState struct {
	manifest *journal.Manifest
	perField []fieldSetting
	handle   *Campaign
}

// fieldConfig is one field's resolved compression settings.
type fieldConfig struct {
	relEB, absEB float64
	valueRange   float64 // the field's value range; 1 when degenerate
	pred         sz.Predictor
	codec        codec.Codec
}

// campaignRun is one execution of the stage graph: the resolved spec, the
// per-field table, and the ledgers the stages share. The stage builders
// are its methods; runCampaign drives them.
type campaignRun struct {
	rs       *resolvedSpec
	obs      *obs.Obs // rs.spec.Obs
	fields   []*datagen.Field
	cfgs     []fieldConfig
	names    []string // archive member names, by field index
	byName   map[string]int
	planned  bool // per-field plan settings; verify also scores PSNR
	jw       *journal.Writer
	cm       campaignMetrics
	progress *campaignProgress
	// digestOn enables the per-field reconstruction digest pass: fan-out
	// campaigns pay it to prove worker-count invariance, journaled and
	// resumed campaigns so a resumed half can be compared digest-for-digest
	// with an uninterrupted run.
	digestOn     bool
	reconDigests []uint64

	chunks  atomic.Int64
	linkMu  sync.Mutex
	linkSec float64
}

// runCampaign executes the shared compress → pack → transfer →
// decompress/verify stage graph. The engines differ only in the pack
// policy (barrier packs after every stream, pipelined as groups fill) and
// the sequential engine's barrier before decompression.
func runCampaign(ctx context.Context, fields []*datagen.Field, rs *resolvedSpec, st runState) (*CampaignResult, error) {
	r, res, err := newCampaignRun(fields, rs, st)
	if err != nil {
		return nil, err
	}
	ps := &packState{names: r.names, streams: make(map[int][]byte), obs: r.obs, integrity: rs.integrity}
	missing, err := r.openJournal(st.manifest, ps, res)
	if err != nil {
		return nil, err
	}
	if r.jw != nil {
		defer r.jw.Close()
	}

	// Observability: the root span covers the whole stage graph (the ctx
	// rebind parents every stage and per-item span under it), and the
	// campaign counter family is resolved once so stage workers pay one
	// atomic add per event. A nil bundle leaves cm all-nil no-ops.
	r.cm.fields.Add(int64(len(missing)))
	r.cm.rawBytes.Add(res.RawBytes)
	ctx, rootSpan := r.obs.StartSpan(ctx, "campaign",
		obs.Int("fields", int64(len(fields))), obs.String("engine", rs.spec.Engine.String()))
	defer rootSpan.End()
	if r.obs != nil {
		for _, tr := range rs.transports {
			if sim, ok := tr.(*SimulatedWANTransport); ok {
				sim.adoptMetrics(r.obs.Metrics)
			}
		}
	}

	if len(missing) == 0 {
		// Every field was acked before this incarnation started: nothing to
		// re-execute. The digest fold over the journal's recorded digests is
		// identical to the uninterrupted campaign's.
		if err := r.finishJournal(); err != nil {
			return nil, err
		}
		res.ReconDigest = foldDigests(r.reconDigests)
		if r.obs != nil && r.obs.Metrics != nil {
			res.Metrics = r.obs.Metrics.Snapshot()
		}
		return res, nil
	}

	wallStart := rs.now()
	var fan *chunkFanout
	if rs.chunkBytes > 0 {
		if fan, err = newChunkFanout(rs.endpoint); err != nil {
			return nil, err
		}
		defer fan.close()
	}
	g := pipeline.NewGroupWithClock(ctx, rs.now)
	st.handle.observe(g)
	compressed := r.compressStage(g, pipeline.Emit(g, rs.buffer, missing), fan)
	sent := r.transferStage(g, packStage(g, compressed, ps, rs, missing))
	if rs.spec.Engine == EngineSequential {
		sent = sequentialBarrier(g, sent, rs.buffer)
	}
	verified := pipeline.Collect(g, r.decompressStage(g, sent))
	if err := g.Wait(); err != nil {
		return nil, err
	}
	res.WallSec = rs.now().Sub(wallStart).Seconds()
	if err := r.assemble(res, *verified, ps, missing, g.Stats()); err != nil {
		return nil, err
	}
	return res, nil
}

// newCampaignRun resolves every field's bound, predictor, and codec —
// the campaign's, or the plan's per-field override — before any
// compression starts, so a bad setting fails fast instead of mid-pipeline.
func newCampaignRun(fields []*datagen.Field, rs *resolvedSpec, st runState) (*campaignRun, *CampaignResult, error) {
	if st.perField != nil && len(st.perField) != len(fields) {
		return nil, nil, fmt.Errorf("core: %d field settings for %d fields", len(st.perField), len(fields))
	}
	run := &campaignRun{
		rs:           rs,
		obs:          rs.spec.Obs,
		fields:       fields,
		cfgs:         make([]fieldConfig, len(fields)),
		names:        make([]string, len(fields)),
		byName:       make(map[string]int, len(fields)),
		planned:      st.perField != nil,
		cm:           newCampaignMetrics(rs.spec.Obs),
		progress:     st.handle.progress,
		digestOn:     rs.chunkBytes > 0 || rs.spec.Journal != "" || st.manifest != nil,
		reconDigests: make([]uint64, len(fields)),
	}
	res := &CampaignResult{Files: len(fields), Pipelined: rs.spec.Engine == EnginePipelined, Codec: rs.codec}
	for i, f := range fields {
		res.RawBytes += int64(f.RawBytes())
		r := sz.ValueRange(f.Data)
		relEB, pred, codecName := rs.spec.RelErrorBound, rs.spec.Predictor, rs.codec
		if st.perField != nil {
			if s := st.perField[i]; s.relEB > 0 {
				relEB = s.relEB
				if s.predictor != 0 {
					pred = s.predictor
				}
				if s.codec != "" {
					codecName = s.codec
				}
			}
		}
		if relEB <= 0 {
			return nil, nil, fmt.Errorf("core: field %d has no error bound", i)
		}
		cdc, err := codec.Lookup(codecName)
		if err != nil {
			return nil, nil, fmt.Errorf("core: field %d: %w", i, err)
		}
		// Report the codec the campaign actually ran: the common per-field
		// codec, or "mixed" when a plan split the fields across codecs.
		if i == 0 {
			res.Codec = codecName
		} else if codecName != res.Codec {
			res.Codec = "mixed"
		}
		run.cfgs[i] = fieldConfig{relEB: relEB, absEB: relEB * r, valueRange: r, pred: pred, codec: cdc}
		run.names[i] = f.ID() + ".sz"
		run.byName[run.names[i]] = i
	}
	return run, res, nil
}

// openJournal reconciles a loaded resume manifest with this run and opens
// this incarnation's journal. The spec fingerprint guards resumes: a
// journal written under one spec refuses to resume under another. The
// manifest tells which fields acked groups already cover — their recorded
// digests seed the fold and only the rest is returned for execution — and
// the journal writer records this incarnation's progress durably before
// each step proceeds.
func (r *campaignRun) openJournal(m *journal.Manifest, ps *packState, res *CampaignResult) ([]int, error) {
	rs := r.rs
	var hash string
	if rs.spec.Journal != "" || m != nil {
		hash = specFingerprint(r.fields, rs, r.planned)
	}
	missing := make([]int, 0, len(r.fields))
	if m == nil {
		for i := range r.fields {
			missing = append(missing, i)
		}
	} else {
		for i, fp := range m.Fields {
			if fp.Name != r.names[i] {
				return nil, fmt.Errorf("core: journal field %d is %q, campaign has %q", i, fp.Name, r.names[i])
			}
		}
		if err := m.CheckSpec(hash); err != nil {
			return nil, fmt.Errorf("core: resume %s: %w", rs.spec.ResumeFrom, err)
		}
		done, doneDigests := m.DoneFields()
		copy(r.reconDigests, doneDigests)
		for i := range r.fields {
			if !done[i] {
				missing = append(missing, i)
			}
		}
		// New groups are numbered after the journal's so ids stay unique
		// across incarnations.
		ps.idOffset = m.MaxGroupID() + 1
		ps.nextID = ps.idOffset
		res.Resumed = true
		res.SkippedGroups = m.AckedGroups()
		res.SkippedBytes = m.AckedBytes()
	}

	path := rs.spec.Journal
	if path == "" {
		return missing, nil
	}
	var err error
	if m != nil && path == rs.spec.ResumeFrom {
		// Resumed incarnation extending its own journal: append-only.
		if r.jw, err = journal.OpenAppend(path); err == nil {
			err = r.jw.Resume()
		}
	} else {
		plans := make([]journal.FieldPlan, len(r.fields))
		for i, fc := range r.cfgs {
			plans[i] = journal.FieldPlan{Name: r.names[i], RelEB: fc.relEB,
				Predictor: int(fc.pred), Codec: fc.codec.Name()}
		}
		if r.jw, err = journal.Create(path); err == nil {
			err = r.jw.Begin(hash, rs.spec.Engine.String(), int(rs.strategy), rs.param, plans, rs.spec.JournalMeta)
		}
		if err == nil && m != nil {
			// Resume journaling to a new path: replay the acked state so
			// the fresh journal stands alone.
			err = replayAcked(r.jw, m)
		}
	}
	if err != nil {
		if r.jw != nil {
			r.jw.Close()
		}
		return nil, fmt.Errorf("core: journal %s: %w", path, err)
	}
	if r.obs != nil {
		r.jw.SetMetrics(r.obs.Metrics)
	}
	ps.journal = r.jw
	return missing, nil
}

// finishJournal records the campaign's completion, if it journals.
func (r *campaignRun) finishJournal() error {
	if r.jw == nil {
		return nil
	}
	if err := r.jw.Done(); err != nil {
		return fmt.Errorf("core: journal %s: %w", r.rs.spec.Journal, err)
	}
	return nil
}

// compressStage encodes each pending field with its configured codec —
// in the stage worker, or fanned out chunk-wise over fan when the spec
// enables chunking.
func (r *campaignRun) compressStage(g *pipeline.Group, src <-chan int, fan *chunkFanout) <-chan compressedItem {
	rs := r.rs
	return pipeline.Stage(g, pipeline.Config{Name: "compress", Workers: rs.workers, Buffer: rs.buffer}, src,
		func(ctx context.Context, i int) (compressedItem, error) {
			f, fc := r.fields[i], r.cfgs[i]
			ctx, span := r.obs.StartSpan(ctx, "compress",
				obs.String("field", f.ID()), obs.String("codec", fc.codec.Name()))
			defer span.End()
			cfg := sz.DefaultConfig(fc.absEB)
			if fc.pred != 0 {
				cfg.Predictor = fc.pred
			}
			var stream []byte
			var err error
			switch {
			case fan != nil:
				// Chunk fan-out: this stage worker only batches chunk tasks
				// onto the endpoint and assembles the completions; the
				// endpoint's worker pool is the actual compression
				// parallelism. The chunk tasks carry the field's codec.
				// Transient fabric failures retry under the campaign policy.
				var n, retries int
				retries, err = rs.retry.Do(ctx, func(ctx context.Context) error {
					var cerr error
					stream, n, cerr = fan.compressField(ctx, f, fc.codec, cfg, rs.chunkBytes)
					return cerr
				})
				r.progress.retries.Add(int64(retries))
				r.chunks.Add(int64(n))
				r.cm.chunks.Add(int64(n))
				span.Annotate(obs.Int("chunks", int64(n)))
			case fc.codec.Name() == sz.CodecName:
				// The sz3 path keeps its richer Config (predictor choice,
				// future knobs) rather than flattening through the
				// codec-neutral Params.
				stream, _, err = sz.Compress(f.Data, f.Dims, cfg)
			default:
				stream, err = fc.codec.Compress(f.Data, f.Dims, codec.Params{AbsErrorBound: fc.absEB})
			}
			if err != nil {
				return compressedItem{}, fmt.Errorf("compress %s: %w", f.ID(), err)
			}
			r.cm.compressedBytes.Add(int64(len(stream)))
			span.Annotate(obs.Int("bytes", int64(len(stream))))
			return compressedItem{idx: i, stream: stream}, nil
		})
}

// archiveName is the transfer name of packed group id.
func archiveName(id int) string { return fmt.Sprintf("group-%04d.ocgr", id) }

// transferStage ships each packed archive with the full retry/failover
// budget and journals the send.
func (r *campaignRun) transferStage(g *pipeline.Group, in <-chan packedGroup) <-chan sentGroup {
	rs := r.rs
	return pipeline.Stage(g, pipeline.Config{Name: "transfer", Workers: rs.streams, Buffer: rs.buffer}, in,
		func(ctx context.Context, pg packedGroup) (sentGroup, error) {
			ctx, span := r.obs.StartSpan(ctx, "transfer",
				obs.Int("group", int64(pg.id)), obs.Int("bytes", int64(len(pg.archive))))
			defer span.End()
			delivered, err := r.ship(ctx, archiveName(pg.id), pg.archive)
			if err != nil {
				return sentGroup{}, err
			}
			r.cm.groups.Inc()
			r.progress.sentGroups.Add(1)
			if r.jw != nil {
				_, jsp := r.obs.StartSpan(ctx, "journal.sent", obs.Int("group", int64(pg.id)))
				jerr := r.jw.Sent(pg.id)
				jsp.End()
				if jerr != nil {
					return sentGroup{}, jerr
				}
			}
			return sentGroup{packedGroup: pg, delivered: delivered}, nil
		})
}

// send offers one payload to one transport: delivered-reporting
// transports return what actually arrived, and weighted transports carry
// the campaign's fair-share weight so concurrent campaigns split a shared
// link proportionally.
func (r *campaignRun) send(ctx context.Context, tr Transport, name string, data []byte) ([]byte, float64, error) {
	weight := r.rs.spec.TransportWeight
	if dt, ok := tr.(DeliveredTransport); ok {
		return dt.SendDelivered(ctx, name, data, weight)
	}
	if wt, ok := tr.(WeightedTransport); ok && weight > 0 {
		sec, err := wt.SendWeighted(ctx, name, data, weight)
		return data, sec, err
	}
	sec, err := tr.Send(ctx, name, data)
	return data, sec, err
}

// ship moves one named payload with the full retry/failover budget and
// returns the bytes that actually arrived. Transient errors (link flaps,
// outage windows) retry in place with exponential backoff, and when the
// primary transport's budget is spent — or it fails permanently — the
// send moves to the next fallback endpoint under the same policy. Every
// successful delivery — first send, corruption retransmit, or quarantine
// escape — flows through here, so link seconds and SentBytes account each
// one exactly once, while retries never double-count.
func (r *campaignRun) ship(ctx context.Context, name string, payload []byte) ([]byte, error) {
	rs := r.rs
	var sec float64
	var delivered []byte
	var attempt int64
	retries, failovers, err := sentinel.Failover(ctx, rs.retry, len(rs.transports),
		func(ctx context.Context, ep int) error {
			// One child span per attempt, so retries and failovers are
			// visible in the trace as repeated sends under the group's
			// transfer span.
			attempt++
			actx, asp := r.obs.StartSpan(ctx, "send",
				obs.Int("attempt", attempt), obs.Int("endpoint", int64(ep)))
			start := rs.now()
			d, s, sendErr := r.send(actx, rs.transports[ep], name, payload)
			r.cm.sendSeconds.Observe(rs.now().Sub(start).Seconds())
			if sendErr == nil {
				delivered, sec = d, s
			} else {
				asp.Annotate(obs.String("error", sendErr.Error()))
			}
			asp.End()
			return sendErr
		})
	r.progress.retries.Add(int64(retries))
	r.progress.failovers.Add(int64(failovers))
	if err != nil {
		return nil, err
	}
	r.linkMu.Lock()
	r.linkSec += sec
	r.linkMu.Unlock()
	r.cm.sentBytes.Add(int64(len(payload)))
	r.progress.sentBytes.Add(int64(len(payload)))
	return delivered, nil
}

// sequentialBarrier holds every transferred group until the transfer
// phase completes, so decompression cannot overlap it (EngineSequential).
func sequentialBarrier(g *pipeline.Group, in <-chan sentGroup, buffer int) <-chan sentGroup {
	var held []sentGroup
	return pipeline.Reduce(g, pipeline.Config{Name: "barrier", Buffer: buffer}, in,
		func(ctx context.Context, sg sentGroup, emit func(sentGroup) error) error {
			held = append(held, sg)
			return nil
		},
		func(ctx context.Context, emit func(sentGroup) error) error {
			for _, sg := range held {
				if err := emit(sg); err != nil {
					return err
				}
			}
			return nil
		})
}

// decompressStage verifies every delivered group end to end.
func (r *campaignRun) decompressStage(g *pipeline.Group, in <-chan sentGroup) <-chan verifiedGroup {
	return pipeline.Stage(g, pipeline.Config{Name: "decompress", Workers: r.rs.workers, Buffer: r.rs.buffer}, in,
		r.verifyGroup)
}

// verifyGroup checks one delivered archive's frame, unpacks it, verifies
// every member, and acks the group in the journal.
func (r *campaignRun) verifyGroup(ctx context.Context, sg sentGroup) (verifiedGroup, error) {
	ctx, span := r.obs.StartSpan(ctx, "decompress", obs.Int("group", int64(sg.id)))
	defer span.End()
	out := verifiedGroup{minPSNR: math.Inf(1)}
	payload, memberSums, err := r.openFrame(ctx, span, sg, &out)
	if err != nil {
		return verifiedGroup{}, err
	}
	members, err := grouping.Unpack(payload)
	if err != nil {
		return verifiedGroup{}, err
	}
	if r.rs.integrity && len(memberSums) != len(members) {
		return verifiedGroup{}, fmt.Errorf("core: group %d: frame records %d members, archive holds %d", sg.id, len(memberSums), len(members))
	}
	span.Annotate(obs.Int("members", int64(len(members))))
	out.members = len(members)
	for k, m := range members {
		var sum uint32
		if r.rs.integrity {
			sum = memberSums[k]
		}
		if err := r.verifyMember(ctx, m, sum, &out); err != nil {
			return verifiedGroup{}, err
		}
	}
	if r.jw != nil {
		// The group is now verified end to end — durable at the
		// destination. Record its per-member recon digests (parallel to the
		// group's journal members, which are sg.idxs) so a resume can fold
		// them without redoing the field, echoing the archive digest so a
		// later resume can prove the ack belongs to the archive the journal
		// describes.
		acks := make([]uint64, len(sg.idxs))
		for k, i := range sg.idxs {
			acks[k] = r.reconDigests[i]
		}
		_, jsp := r.obs.StartSpan(ctx, "journal.ack", obs.Int("group", int64(sg.id)))
		err := r.jw.Ack(sg.id, byteDigest(sg.archive), acks)
		jsp.End()
		if err != nil {
			return verifiedGroup{}, err
		}
	}
	return out, nil
}

// openFrame is the checksum gate before any decompression. With integrity
// on, a delivery that fails the frame check is detected corruption,
// classified transient, and only this group is re-requested through the
// retry budget (a zero-value policy grants one retransmit). It returns the
// archive and its per-member pack-time digests (nil with integrity off).
func (r *campaignRun) openFrame(ctx context.Context, span *obs.Span, sg sentGroup, out *verifiedGroup) ([]byte, []uint32, error) {
	payload := sg.delivered
	if payload == nil {
		payload = sg.archive
	}
	if !r.rs.integrity {
		return payload, nil, nil
	}
	payload, memberSums, verr := integrity.Verify(payload)
	if verr == nil {
		return payload, memberSums, nil
	}
	out.corrupt = true
	r.cm.corruptions.Inc()
	r.progress.corruptGroups.Add(1)
	span.Annotate(obs.String("corrupt", verr.Error()))
	_, rerr := r.rs.retry.Do(ctx, func(ctx context.Context) error {
		rctx, rsp := r.obs.StartSpan(ctx, "retransmit", obs.Int("group", int64(sg.id)))
		defer rsp.End()
		d, serr := r.ship(rctx, archiveName(sg.id), sg.archive)
		if serr != nil {
			return serr
		}
		out.retransmits++
		out.retransmitBytes += int64(len(sg.archive))
		r.cm.retransmits.Inc()
		r.progress.retransmits.Add(1)
		payload, memberSums, verr = integrity.Verify(d)
		if verr != nil {
			r.cm.corruptions.Inc()
			return sentinel.MarkTransient(verr)
		}
		return nil
	})
	if rerr != nil {
		return nil, nil, fmt.Errorf("core: group %d corrupted in transit and not recovered after %d retransmit(s): %w", sg.id, out.retransmits, rerr)
	}
	return payload, memberSums, nil
}

// verifyMember checks one unpacked member under its own "verify" span:
// pack-time checksum, registry decode, the pointwise bound audit (with
// the lossless quarantine escape), the reconstruction digest, and PSNR
// for planned campaigns. sum is the member's pack-time digest (ignored
// with integrity off).
func (r *campaignRun) verifyMember(ctx context.Context, m grouping.Member, sum uint32, out *verifiedGroup) error {
	_, vsp := r.obs.StartSpan(ctx, "verify", obs.String("field", m.Name))
	defer vsp.End()
	i, ok := r.byName[m.Name]
	if !ok {
		return fmt.Errorf("core: unknown member %q", m.Name)
	}
	f, fc := r.fields[i], r.cfgs[i]
	if r.rs.integrity && integrity.Checksum(m.Data) != sum {
		return fmt.Errorf("core: %s: member checksum does not match its pack-time digest", m.Name)
	}
	// Registry dispatch on the member's own magic: grouped archives may mix
	// codecs (per-field plan decisions), and pre-codec sz3 archives decode
	// through the same path byte-identically.
	recon, dims, err := codec.Decompress(m.Data)
	if err != nil {
		return fmt.Errorf("decompress %s: %w", m.Name, err)
	}
	if len(dims) != len(f.Dims) {
		return fmt.Errorf("core: %s: dims mismatch", m.Name)
	}
	// Pointwise bound audit (full by default, stride-sampled via
	// BoundAudit.Stride): the codec's error-bound contract is checked
	// against the data, not trusted.
	maxErr, err := metrics.MaxAbsErrorSampled(f.Data, recon, r.rs.spec.BoundAudit.Stride)
	if err != nil {
		return err
	}
	quarantined := false
	if maxErr > fc.absEB*(1+1e-9) {
		r.cm.auditFailures.Inc()
		if !r.rs.spec.BoundAudit.Quarantine {
			return fmt.Errorf("core: %s: error %g exceeds bound %g", m.Name, maxErr, fc.absEB)
		}
		// The codec broke its bound for this field: quarantine it — re-ship
		// the raw values lossless and record the degradation instead of
		// failing the campaign.
		exact, shipped, qerr := r.quarantine(ctx, i)
		out.degradedBytes += shipped
		if qerr != nil {
			return fmt.Errorf("core: %s: bound violated (%g > %g) and lossless quarantine failed: %w", m.Name, maxErr, fc.absEB, qerr)
		}
		recon, quarantined = exact, true
		out.degraded = append(out.degraded, m.Name)
		r.cm.degradedFields.Inc()
		r.progress.degraded.Add(1)
		vsp.Annotate(obs.String("quarantined", "lossless"))
	} else {
		out.maxRel = math.Max(out.maxRel, maxErr/fc.valueRange)
	}
	// Each field is verified exactly once, so writing its slot is race-free
	// across decompress workers. Quarantined fields digest their exact
	// replacement.
	if r.digestOn {
		r.reconDigests[i] = reconDigest(recon)
	}
	// A quarantined field's replacement is bit-exact — there is no noise to
	// score, so it does not drag minPSNR.
	if r.planned && !quarantined {
		p, err := metrics.PSNR(f.Data, recon)
		if err != nil {
			return err
		}
		out.minPSNR = math.Min(out.minPSNR, p)
	}
	return nil
}

// quarantine re-ships one bound-violating field through the lossless
// escape: the raw float64 bits travel deflate-compressed (with the
// backend's raw fallback) inside an integrity frame, are verified on
// arrival, and replace the lossy reconstruction bit-exactly. It returns
// the exact values and the bytes shipped (counted per delivery).
func (r *campaignRun) quarantine(ctx context.Context, i int) ([]float64, int64, error) {
	qctx, qsp := r.obs.StartSpan(ctx, "quarantine", obs.String("field", r.names[i]))
	defer qsp.End()
	comp, err := lossless.Compress(floatsToBytes(r.fields[i].Data), lossless.Deflate)
	if err != nil {
		return nil, 0, err
	}
	payload := comp
	if r.rs.integrity {
		payload = integrity.Wrap(comp, []uint32{integrity.Checksum(comp)})
	}
	qsp.Annotate(obs.Int("bytes", int64(len(payload))))
	var delivered []byte
	var shipped int64
	_, err = r.rs.retry.Do(qctx, func(ctx context.Context) error {
		d, serr := r.ship(ctx, r.names[i]+".lossless", payload)
		if serr != nil {
			return serr
		}
		shipped += int64(len(payload))
		if r.rs.integrity {
			inner, _, verr := integrity.Verify(d)
			if verr != nil {
				// The escape itself was corrupted in flight: detected, and
				// re-shipped under the same transient budget.
				r.cm.corruptions.Inc()
				return sentinel.MarkTransient(verr)
			}
			d = inner
		}
		delivered = d
		return nil
	})
	if err != nil {
		return nil, shipped, err
	}
	raw, err := lossless.Decompress(delivered)
	if err != nil {
		return nil, shipped, err
	}
	vals, err := bytesToFloats(raw, len(r.fields[i].Data))
	return vals, shipped, err
}

// assemble folds the verified groups, the pack ledger, and the stage
// statistics into res, and closes the journal.
func (r *campaignRun) assemble(res *CampaignResult, verified []verifiedGroup, ps *packState, missing []int, stats []StageTiming) error {
	verifiedFiles := 0
	minPSNR := math.Inf(1)
	for _, v := range verified {
		verifiedFiles += v.members
		res.MaxRelError = math.Max(res.MaxRelError, v.maxRel)
		minPSNR = math.Min(minPSNR, v.minPSNR)
		if v.corrupt {
			res.CorruptGroups++
		}
		res.Retransmits += v.retransmits
		res.RetransmitBytes += v.retransmitBytes
		res.DegradedBytes += v.degradedBytes
		res.DegradedFields = append(res.DegradedFields, v.degraded...)
	}
	sort.Strings(res.DegradedFields)
	if r.planned {
		res.MinPSNR = minPSNR
	}
	if verifiedFiles != len(missing) {
		return fmt.Errorf("core: %d members after grouping, want %d", verifiedFiles, len(missing))
	}
	if err := r.finishJournal(); err != nil {
		return err
	}

	res.CompressedBytes = ps.compressedBytes
	res.GroupedBytes = ps.groupedBytes
	res.Groups = len(ps.plan)
	res.GroupBytes = ps.groupBytes
	// The ratio rates the work this incarnation actually did: for a resume
	// that is the missing fields' raw bytes over their compressed bytes.
	var procRaw int64
	for _, i := range missing {
		procRaw += int64(r.fields[i].RawBytes())
	}
	if res.CompressedBytes > 0 {
		res.Ratio = float64(procRaw) / float64(res.CompressedBytes)
	}
	res.Metadata = grouping.Metadata(ps.names, ps.plan, r.rs.strategy)
	res.LinkSec = r.linkSec
	res.Chunks = int(r.chunks.Load())
	res.CompressWorkers = r.rs.compressWorkers
	res.Retries = int(r.progress.retries.Load())
	res.Failovers = int(r.progress.failovers.Load())
	if r.digestOn {
		res.ReconDigest = foldDigests(r.reconDigests)
	}

	res.OverlapSec = pipeline.Overlap(stats)
	// Per-stage throughput: compress consumes the raw field bytes, packing
	// consumes the compressed streams, the transfer ships the packed
	// archives, and decompression delivers raw bytes back — so
	// compress/decompress MB/s are directly comparable to the codec's
	// single-stream throughput and to the link's rate.
	pipeline.AttachThroughput(stats, "compress", res.RawBytes)
	pipeline.AttachThroughput(stats, "pack", res.CompressedBytes)
	pipeline.AttachThroughput(stats, "transfer", res.GroupedBytes)
	pipeline.AttachThroughput(stats, "decompress", res.RawBytes)
	res.Stages = stats
	for _, s := range stats {
		switch s.Name {
		case "compress":
			res.CompressSec = s.WallSec
		case "pack":
			res.PackSec = s.BusySec
		case "transfer":
			res.TransferSec = s.WallSec
		case "decompress":
			res.DecompressSec = s.WallSec
		}
	}
	if r.obs != nil && r.obs.Metrics != nil {
		// Per-stage throughput distribution across runs, then the inline
		// snapshot — taken last so it includes everything above.
		for _, s := range stats {
			if s.MBps > 0 {
				r.obs.Histogram("campaign_stage_mbps", obs.L("stage", s.Name)).Observe(s.MBps)
			}
		}
		res.Metrics = r.obs.Metrics.Snapshot()
	}
	return nil
}

// FNV-64a parameters for the inline digest loops below: every campaign
// digests every reconstruction, so this runs in the decompress hot path
// and must not pay hash.Hash interface dispatch or per-value allocations.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv64aWord folds one 64-bit word into an FNV-64a state, low byte first
// (equivalent to hashing the word's little-endian bytes).
func fnv64aWord(h, w uint64) uint64 {
	for s := 0; s < 64; s += 8 {
		h ^= (w >> s) & 0xff
		h *= fnvPrime64
	}
	return h
}

// reconDigest hashes one field's reconstruction (FNV-64a over the exact
// float64 bit patterns), so two campaigns can be compared for bit-identical
// output without retaining the data.
func reconDigest(recon []float64) uint64 {
	h := uint64(fnvOffset64)
	for _, v := range recon {
		h = fnv64aWord(h, math.Float64bits(v))
	}
	return h
}

// floatsToBytes flattens float64 values into their little-endian IEEE-754
// bit patterns — the wire form of a quarantined field's lossless escape.
func floatsToBytes(vals []float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// bytesToFloats inverts floatsToBytes, checking the payload carries
// exactly the expected value count.
func bytesToFloats(raw []byte, want int) ([]float64, error) {
	if len(raw) != 8*want {
		return nil, fmt.Errorf("core: lossless escape carries %d bytes, want %d", len(raw), 8*want)
	}
	vals := make([]float64, want)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return vals, nil
}

// foldDigests combines per-field digests in field-index order into one
// campaign digest. Field order is fixed by the input, not by completion
// order, so the fold is deterministic under any scheduling.
func foldDigests(digests []uint64) uint64 {
	h := uint64(fnvOffset64)
	for _, d := range digests {
		h = fnv64aWord(h, d)
	}
	return h
}

// packStage wires the grouping stage over the active field subset (all
// fields on a fresh run, the journal's missing fields on a resume). Every
// engine runs it as a single-worker Reduce; the pipelined engine emits
// groups as they fill, the others after every stream has arrived.
func packStage(g *pipeline.Group, in <-chan compressedItem, ps *packState, rs *resolvedSpec, active []int) <-chan packedGroup {
	cfg := pipeline.Config{Name: "pack", Buffer: rs.buffer}
	strategy, param := rs.strategy, rs.param
	nFields := len(active)

	if rs.spec.Engine != EnginePipelined {
		// Barrier: hold every stream, then group exactly as the classic
		// path does (round-robin plan over the active inventory).
		return pipeline.Reduce(g, cfg, in,
			func(ctx context.Context, it compressedItem, emit func(packedGroup) error) error {
				ps.streams[it.idx] = it.stream
				ps.compressedBytes += int64(len(it.stream))
				return nil
			},
			func(ctx context.Context, emit func(packedGroup) error) error {
				sizes := make([]int64, nFields)
				for j, i := range active {
					sizes[j] = int64(len(ps.streams[i]))
				}
				plan, err := grouping.Plan(sizes, strategy, param)
				if err != nil {
					return err
				}
				for _, pos := range plan {
					idxs := make([]int, len(pos))
					for k, p := range pos {
						idxs[k] = active[p]
					}
					if err := ps.emitGroup(ctx, idxs, emit); err != nil {
						return err
					}
				}
				return nil
			})
	}

	// Streaming: emit a group the moment it fills so the transfer stage
	// can start while later fields are still compressing. ByWorldSize
	// fills exactly `world` balanced groups (the first n%world groups get
	// one extra member, matching the round-robin plan's sizes, so the
	// archive count — and hence per-file WAN overhead — is identical to
	// the barrier engine's). ByTargetSize fills byte-budget groups;
	// SingleArchive degenerates to one flush.
	groupSize := func(int) int { return 0 }
	if strategy == grouping.ByWorldSize {
		world := int(param)
		if world > nFields {
			world = nFields
		}
		base, rem := nFields/world, nFields%world
		groupSize = func(g int) int {
			if g < rem {
				return base + 1
			}
			return base
		}
	}
	var cur []int
	var curBytes int64
	flushCur := func(ctx context.Context, emit func(packedGroup) error) error {
		if len(cur) == 0 {
			return nil
		}
		// Streams arrive in completion order; keep members sorted so
		// metadata is stable for a given grouping.
		idxs := append([]int(nil), cur...)
		sort.Ints(idxs)
		cur, curBytes = nil, 0
		return ps.emitGroup(ctx, idxs, emit)
	}
	return pipeline.Reduce(g, cfg, in,
		func(ctx context.Context, it compressedItem, emit func(packedGroup) error) error {
			size := int64(len(it.stream))
			ps.compressedBytes += size
			if strategy == grouping.ByTargetSize && curBytes > 0 && curBytes+size > param {
				if err := flushCur(ctx, emit); err != nil {
					return err
				}
			}
			ps.streams[it.idx] = it.stream
			cur = append(cur, it.idx)
			curBytes += size
			if want := groupSize(ps.nextID - ps.idOffset); want > 0 && len(cur) == want {
				return flushCur(ctx, emit)
			}
			return nil
		},
		func(ctx context.Context, emit func(packedGroup) error) error {
			return flushCur(ctx, emit)
		})
}
