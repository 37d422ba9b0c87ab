package main

import (
	"fmt"
	"math"

	"ocelot/internal/core"
	"ocelot/internal/metrics"
	"ocelot/internal/sz"
	"ocelot/internal/szx"
)

// fieldSetting is how one field was compressed.
type fieldSetting struct {
	codec string
	relEB float64
	pred  sz.Predictor
	absEB float64
}

// reference is one kind's campaign rebuilt field by field from the layer
// packages: the streams, the reconstructions and their quality. The
// layer pass times the same calls on the same data.
type reference struct {
	kind     kind
	settings []fieldSetting
	streams  [][]byte
	recon    [][]float64
	minPSNR  float64
	maxRel   float64
}

// settingsFor resolves the per-field settings a campaign ran with: the
// plan's decisions for an adaptive campaign, else the kind's codec at the
// workload bound. Bounds resolve against each field's range exactly as
// the engine resolves them.
func settingsFor(k kind, res *core.CampaignResult) []fieldSetting {
	out := make([]fieldSetting, len(k.fields))
	for i, f := range k.fields {
		s := fieldSetting{codec: k.codec, relEB: relEB, pred: sz.PredictorInterp}
		if res != nil && res.Plan != nil {
			fp := res.Plan.Fields[i]
			s.codec, s.relEB = fp.Codec, fp.RelEB
			if fp.Predictor != 0 {
				s.pred = fp.Predictor
			}
		}
		r := metrics.ComputeRange(f.Data).Range
		if r <= 0 {
			r = 1
		}
		s.absEB = s.relEB * r
		out[i] = s
	}
	return out
}

// compressField runs the codec a setting names on one field.
func compressField(data []float64, dims []int, s fieldSetting) ([]byte, error) {
	switch s.codec {
	case "sz3", "":
		cfg := sz.DefaultConfig(s.absEB)
		cfg.Predictor = s.pred
		stream, _, err := sz.Compress(data, dims, cfg)
		return stream, err
	case "szx":
		return szx.Compress(data, dims, s.absEB)
	}
	return nil, fmt.Errorf("no codec %q in the benchmark", s.codec)
}

// decompressField inverts compressField.
func decompressField(stream []byte, s fieldSetting) ([]float64, error) {
	var out []float64
	var err error
	if s.codec == "szx" {
		out, _, err = szx.Decompress(stream)
	} else {
		out, _, err = sz.Decompress(stream)
	}
	return out, err
}

// buildReference recompresses a kind's fields as campaign res did and
// checks the campaign shipped exactly those streams' bytes; it then
// decompresses them and scores the reconstructions.
func buildReference(k kind, res *core.CampaignResult) (*reference, error) {
	ref := &reference{kind: k, settings: settingsFor(k, res), minPSNR: math.Inf(1)}
	var total int64
	for i, f := range k.fields {
		s := ref.settings[i]
		stream, err := compressField(f.Data, f.Dims, s)
		if err != nil {
			return nil, fmt.Errorf("%s: compress %s: %w", k.name, f.ID(), err)
		}
		recon, err := decompressField(stream, s)
		if err != nil {
			return nil, fmt.Errorf("%s: decompress %s: %w", k.name, f.ID(), err)
		}
		maxAbs, err := metrics.MaxAbsError(f.Data, recon)
		if err != nil {
			return nil, err
		}
		if maxAbs > s.absEB {
			return nil, fmt.Errorf("%s: %s reconstructs with error %g over its bound %g", k.name, f.ID(), maxAbs, s.absEB)
		}
		p, err := metrics.PSNR(f.Data, recon)
		if err != nil {
			return nil, err
		}
		ref.minPSNR = math.Min(ref.minPSNR, p)
		ref.maxRel = math.Max(ref.maxRel, maxAbs/(s.absEB/s.relEB))
		ref.streams = append(ref.streams, stream)
		ref.recon = append(ref.recon, recon)
		total += int64(len(stream))
	}
	if res != nil && total != res.CompressedBytes {
		return nil, fmt.Errorf("%s: campaign shipped %d compressed bytes, the codecs produce %d", k.name, res.CompressedBytes, total)
	}
	if res != nil && res.Planned && math.Abs(res.MinPSNR-ref.minPSNR) > 1e-9 {
		return nil, fmt.Errorf("%s: campaign measured min PSNR %g, the reconstructions score %g", k.name, res.MinPSNR, ref.minPSNR)
	}
	return ref, nil
}
