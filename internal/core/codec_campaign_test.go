package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"ocelot/internal/datagen"
	"ocelot/internal/sz"
	"ocelot/internal/szx"
)

// codecCampaignFields builds a small CESM workload.
func codecCampaignFields(t *testing.T, n int) []*datagen.Field {
	t.Helper()
	names := datagen.Fields("CESM")[:n]
	fields := make([]*datagen.Field, 0, n)
	for _, name := range names {
		f, err := datagen.Generate("CESM", name, 40, 5)
		if err != nil {
			t.Fatal(err)
		}
		fields = append(fields, f)
	}
	return fields
}

// TestCampaignSzxCodec runs the full pipelined campaign on the szx codec:
// compress, pack, ship, decompress via registry dispatch, verify bounds.
func TestCampaignSzxCodec(t *testing.T) {
	fields := codecCampaignFields(t, 6)
	res, err := Run(context.Background(), fields, CampaignSpec{
		RelErrorBound: 1e-3,
		Workers:       4,
		GroupParam:    3,
		Codec:         szx.Name,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Codec != szx.Name {
		t.Errorf("result codec %q, want %q", res.Codec, szx.Name)
	}
	if res.MaxRelError > 1e-3*(1+1e-9) {
		t.Errorf("max relative error %g exceeds the bound", res.MaxRelError)
	}
	if res.Ratio <= 1 {
		t.Errorf("ratio %.2f did not compress", res.Ratio)
	}
	if res.Files != 6 || res.Groups != 3 {
		t.Errorf("files %d groups %d", res.Files, res.Groups)
	}
}

// TestCampaignInfiniteValueField: a field holding +Inf has an infinite
// value range, so its relative bound must resolve through sz.ValueRange's
// fallback (range 1) instead of becoming an infinite absolute bound that
// the codec rejects. The campaign completes on both codecs, the infinite
// value survives exactly, and every finite value stays within its bound.
func TestCampaignInfiniteValueField(t *testing.T) {
	for _, name := range []string{sz.CodecName, szx.Name} {
		t.Run(name, func(t *testing.T) {
			fields := codecCampaignFields(t, 3)
			inf := *fields[1]
			inf.Data = append([]float64(nil), inf.Data...)
			inf.Data[len(inf.Data)/3] = math.Inf(1)
			fields[1] = &inf
			res, err := Run(context.Background(), fields, CampaignSpec{
				RelErrorBound: 1e-3,
				Workers:       2,
				GroupParam:    2,
				Codec:         name,
			})
			if err != nil {
				t.Fatalf("campaign with a +Inf field failed: %v", err)
			}
			if res.MaxRelError > 1e-3*(1+1e-9) {
				t.Errorf("max relative error %g exceeds the bound", res.MaxRelError)
			}
			if len(res.DegradedFields) != 0 {
				t.Errorf("fields %v quarantined; the codec should honour the fallback bound", res.DegradedFields)
			}
		})
	}
}

// TestCampaignSzxChunkFanout exercises the generic codec path through the
// chunk fan-out endpoint: szx chunks are compressed by the faas workers,
// assembled into OCSC containers, and must round-trip within the bound.
func TestCampaignSzxChunkFanout(t *testing.T) {
	fields := codecCampaignFields(t, 4)
	chunkMB := float64(fields[0].RawBytes()) / 4 / 1e6
	res, err := Run(context.Background(), fields, CampaignSpec{
		RelErrorBound:   1e-3,
		Workers:         4,
		GroupParam:      2,
		Codec:           szx.Name,
		ChunkMB:         chunkMB,
		CompressWorkers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Chunks <= res.Files {
		t.Errorf("fields did not split: %d chunks for %d fields", res.Chunks, res.Files)
	}
	if res.MaxRelError > 1e-3*(1+1e-9) {
		t.Errorf("max relative error %g exceeds the bound", res.MaxRelError)
	}
	if res.ReconDigest == 0 {
		t.Error("fan-out campaign should report a reconstruction digest")
	}
}

// TestCampaignMixedCodecs drives the engine with per-field codec
// settings (what a planned campaign does): sz3 and szx members share
// group archives and the verify stage dispatches per member.
func TestCampaignMixedCodecs(t *testing.T) {
	fields := codecCampaignFields(t, 4)
	settings := make([]fieldSetting, len(fields))
	for i := range settings {
		settings[i] = fieldSetting{relEB: 1e-3, codec: sz.CodecName}
		if i%2 == 1 {
			settings[i].codec = szx.Name
		}
	}
	// Adaptive with no campaign bound: every field runs on its setting.
	rs, err := resolve(CampaignSpec{Workers: 4, GroupParam: 2, TransferStreams: 2, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runCampaign(context.Background(), fields, rs,
		runState{perField: settings, handle: newCampaign(fields, rs.now)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Codec != "mixed" {
		t.Errorf("result codec %q, want mixed", res.Codec)
	}
	if res.MaxRelError > 1e-3*(1+1e-9) {
		t.Errorf("max relative error %g exceeds the bound", res.MaxRelError)
	}
}

// TestCampaignUnknownCodecFailsFast: a typo'd codec name errors before
// any compression starts, citing the valid names.
func TestCampaignUnknownCodecFailsFast(t *testing.T) {
	fields := codecCampaignFields(t, 2)
	_, err := Run(context.Background(), fields, CampaignSpec{
		RelErrorBound: 1e-3,
		Codec:         "zstd",
	})
	if err == nil {
		t.Fatal("want error for unknown codec")
	}
	if !strings.Contains(err.Error(), "valid:") {
		t.Errorf("error %q should list the valid codec names", err)
	}
}
