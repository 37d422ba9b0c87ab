// Package d is boundres golden data: relative→absolute bound arithmetic
// in every spelling the repo has used, plus the one sanctioned site.
package d

import (
	"math"

	"ocelot/internal/metrics"
)

// Config mimics sz.Config for the golden cases.
type Config struct {
	ErrorBound float64
	Mode       int
}

// BadPlain is the PR 2 shape verbatim.
func BadPlain(eb, rng float64) float64 {
	return eb * rng // want `ad-hoc relative-to-absolute bound arithmetic`
}

// BadNamed spells the operands the way the planner code did.
func BadNamed(relEB, valueRange float64) float64 {
	return relEB * valueRange // want `ad-hoc relative-to-absolute bound arithmetic`
}

// BadReversed has the range on the left.
func BadReversed(rng, eb float64) float64 {
	return rng * eb // want `ad-hoc relative-to-absolute bound arithmetic`
}

// BadField resolves from a config field instead of a local.
func BadField(c Config, rng float64) float64 {
	return c.ErrorBound * rng // want `ad-hoc relative-to-absolute bound arithmetic`
}

// fieldConfig mimics the campaign engine's resolved per-field settings.
type fieldConfig struct {
	absEB, valueRange float64
}

// BadCampaignRun reproduces the campaign engine's old per-field bound
// resolution: the raw range is named r, so only its origin gives it away,
// and one +Inf value makes the bound infinite.
func BadCampaignRun(fields [][]float64, relEB float64) []fieldConfig {
	cfgs := make([]fieldConfig, len(fields))
	for i, f := range fields {
		r := metrics.ComputeRange(f).Range
		if r <= 0 {
			r = 1
		}
		cfgs[i] = fieldConfig{absEB: relEB * r, valueRange: r} // want `raw metrics.ComputeRange`
	}
	return cfgs
}

// BadInlineRange scales by the raw range without naming it.
func BadInlineRange(data []float64) float64 {
	return 1e-3 * float64(metrics.ComputeRange(data).Range) // want `raw metrics.ComputeRange`
}

// BadAssignedLater assigns the raw range with = rather than :=.
func BadAssignedLater(data []float64, tol float64) float64 {
	var span float64
	span = metrics.ComputeRange(data).Range
	return (span) * tol // want `raw metrics.ComputeRange`
}

// BadVarDecl declares the raw range with var.
func BadVarDecl(data []float64, relEB float64) float64 {
	var width = metrics.ComputeRange(data).Range
	return relEB * width // want `raw metrics.ComputeRange`
}

// OKRangeForPSNR uses the raw range for a log-scale score, not a bound.
func OKRangeForPSNR(data []float64, mse float64) float64 {
	r := metrics.ComputeRange(data).Range
	return 20*math.Log10(r) - 10*math.Log10(mse)
}

// OKOtherStat multiplies a different statistic of the same scan.
func OKOtherStat(data []float64, k float64) float64 {
	return k * metrics.ComputeRange(data).Std
}

// AbsoluteBound is the sanctioned resolver: the same arithmetic here is
// the single source of truth, not a finding.
func (c Config) AbsoluteBound(data []float64) float64 {
	rng := 0.0
	if len(data) > 0 {
		lo, hi := data[0], data[0]
		for _, v := range data {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		rng = hi - lo
	}
	if rng <= 0 {
		rng = 1
	}
	return c.ErrorBound * rng
}

// OKUnrelated multiplies things that are not a bound and a range.
func OKUnrelated(scale, weight float64) float64 {
	return scale * weight
}

// OKDouble scales a bound by a constant, which is not range resolution.
func OKDouble(eb float64) float64 {
	return eb * 2
}
