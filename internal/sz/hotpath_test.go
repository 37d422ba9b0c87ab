package sz

import (
	"bytes"
	"math"
	"os"
	"testing"
	"time"

	"ocelot/internal/datagen"
)

func nowSec() float64 { return float64(time.Now().UnixNano()) / 1e9 }

// hotpathField builds a deterministic, mildly noisy field that exercises
// escapes, a spread of quantization bins, and every predictor.
func hotpathField(n int) []float64 {
	data := make([]float64, n)
	for i := range data {
		x := float64(i) / float64(n)
		data[i] = 40*math.Sin(11*x) + 6*x + 0.3*math.Sin(301*x)
	}
	// A few unpredictable spikes force literal escapes.
	for i := 97; i < n; i += 997 {
		data[i] += 1e7
	}
	return data
}

// hotpathCase is one predictor/shape/config combination the hot path must
// reproduce byte for byte. Zero fields take the defaults: cubic interp, a
// 1e-3 absolute bound and the default radius.
type hotpathCase struct {
	name      string
	dims      []int
	pred      Predictor
	interp    InterpMode
	eb        float64
	radius    int
	nonFinite bool // inject NaN and ±Inf values
}

func (tc hotpathCase) config() Config {
	eb := tc.eb
	if eb == 0 {
		eb = 1e-3
	}
	cfg := DefaultConfig(eb)
	cfg.Predictor = tc.pred
	if tc.interp != 0 {
		cfg.Interp = tc.interp
	}
	cfg.Radius = tc.radius
	return cfg
}

func (tc hotpathCase) field() []float64 {
	n := 1
	for _, d := range tc.dims {
		n *= d
	}
	data := hotpathField(n)
	if tc.nonFinite {
		for i := 0; i < n; i += 37 {
			data[i] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[(i/37)%3]
		}
	}
	return data
}

// hotpathCases crosses predictors with dimensionalities (odd extents, so
// boundary code paths run). The interp cases cover both modes in 1-D
// through 4-D, extents 1–5 where the cubic interior is empty or h ≥ n,
// non-finite values, and a radius above 2^15 so codes ride the wide lane.
func hotpathCases() []hotpathCase {
	return []hotpathCase{
		{name: "interp-1d", dims: []int{1200}, pred: PredictorInterp},
		{name: "interp-2d", dims: []int{30, 41}, pred: PredictorInterp},
		{name: "interp-3d", dims: []int{11, 13, 17}, pred: PredictorInterp},
		{name: "lorenzo-2d", dims: []int{29, 43}, pred: PredictorLorenzo},
		{name: "lorenzo-4d", dims: []int{5, 7, 6, 9}, pred: PredictorLorenzo},
		{name: "regression-2d", dims: []int{33, 37}, pred: PredictorRegression},
		{name: "regression-3d", dims: []int{10, 12, 11}, pred: PredictorRegression},
		{name: "interp-linear-1d", dims: []int{1201}, pred: PredictorInterp, interp: InterpLinear},
		{name: "interp-linear-2d", dims: []int{31, 40}, pred: PredictorInterp, interp: InterpLinear},
		{name: "interp-linear-3d", dims: []int{9, 16, 13}, pred: PredictorInterp, interp: InterpLinear},
		{name: "interp-linear-4d", dims: []int{5, 6, 7, 9}, pred: PredictorInterp, interp: InterpLinear},
		{name: "interp-cubic-4d", dims: []int{7, 5, 9, 6}, pred: PredictorInterp},
		{name: "interp-extent-1", dims: []int{1}, pred: PredictorInterp},
		{name: "interp-extent-2", dims: []int{2}, pred: PredictorInterp},
		{name: "interp-extent-3-linear", dims: []int{3}, pred: PredictorInterp, interp: InterpLinear},
		{name: "interp-extents-1-5", dims: []int{1, 5, 3}, pred: PredictorInterp},
		{name: "interp-extents-4-5", dims: []int{4, 5}, pred: PredictorInterp},
		{name: "interp-extents-5-1-2-3", dims: []int{5, 1, 2, 3}, pred: PredictorInterp, interp: InterpLinear},
		{name: "interp-nonfinite-2d", dims: []int{23, 29}, pred: PredictorInterp, nonFinite: true},
		{name: "interp-nonfinite-linear-3d", dims: []int{9, 10, 11}, pred: PredictorInterp, interp: InterpLinear, nonFinite: true},
		{name: "interp-wide-2d", dims: []int{30, 41}, pred: PredictorInterp, eb: 1e-5, radius: 40000},
		{name: "interp-wide-linear-1d", dims: []int{999}, pred: PredictorInterp, interp: InterpLinear, eb: 1e-5, radius: 40000},
	}
}

// TestCompressMatchesReference: the production hot path must emit streams
// byte-identical to the reference path (pre-overhaul entropy stage and the
// frozen per-point interp traversal), both must report identical run
// statistics, and both decoders must rebuild identical values, for every
// predictor and dimensionality.
func TestCompressMatchesReference(t *testing.T) {
	for _, tc := range hotpathCases() {
		t.Run(tc.name, func(t *testing.T) {
			data, cfg := tc.field(), tc.config()
			fast, fastStats, err := Compress(data, tc.dims, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, refStats, err := CompressReference(data, tc.dims, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fast, ref) {
				t.Fatalf("streams differ: %d vs %d bytes", len(fast), len(ref))
			}
			if *fastStats != *refStats {
				t.Fatalf("stats differ:\n new %+v\n ref %+v", *fastStats, *refStats)
			}

			fastRecon, fastDims, err := Decompress(fast)
			if err != nil {
				t.Fatal(err)
			}
			refRecon, _, err := DecompressReference(fast)
			if err != nil {
				t.Fatal(err)
			}
			if len(fastDims) != len(tc.dims) {
				t.Fatalf("dims %v", fastDims)
			}
			for i := range fastRecon {
				if math.Float64bits(fastRecon[i]) != math.Float64bits(refRecon[i]) {
					t.Fatalf("reconstruction differs at %d: %g vs %g", i, fastRecon[i], refRecon[i])
				}
			}
			if m := MaxAbsError(data, fastRecon); m > cfg.ErrorBound*(1+1e-9) {
				t.Fatalf("error %g exceeds bound", m)
			}
		})
	}
}

// TestCompressUnaffectedByDirtyArena pins the arena's no-zeroing contract:
// pooled recon buffers are reused without clearing, which is only sound if
// no traversal ever reads a slot it has not yet written. Poison the pool
// with NaN-filled buffers and assert the emitted stream still matches the
// reference path (which allocates fresh zeroed buffers) bit for bit.
func TestCompressUnaffectedByDirtyArena(t *testing.T) {
	for _, tc := range hotpathCases() {
		t.Run(tc.name, func(t *testing.T) {
			data, cfg := tc.field(), tc.config()
			n := len(data)
			ref, _, err := CompressReference(data, tc.dims, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 8; round++ {
				// Poison a batch of arenas large enough for the run, so the
				// pool hands Compress dirty buffers of sufficient capacity.
				poisoned := make([]*arena, 4)
				for i := range poisoned {
					a := getArena()
					r := a.reconScratch(n)
					for j := range r {
						r[j] = math.NaN()
					}
					poisoned[i] = a
				}
				for _, a := range poisoned {
					a.release()
				}
				got, _, err := Compress(data, tc.dims, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, ref) {
					t.Fatalf("round %d: dirty arena changed the stream", round)
				}
			}
		})
	}
}

// TestGoldenByteIdentity pins the strongest compatibility invariant: a
// fresh Compress of the golden field reproduces the frozen on-disk stream
// byte for byte (the golden file predates the hot-path overhaul).
func TestGoldenByteIdentity(t *testing.T) {
	golden, err := os.ReadFile("testdata/golden/sz3-v1.ocsz")
	if err != nil {
		t.Fatal(err)
	}
	fresh, _, err := Compress(dispatchField(), []int{30, 40}, DefaultConfig(1e-4))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh, golden) {
		t.Fatalf("freshly compressed stream (%d bytes) differs from frozen golden (%d bytes)",
			len(fresh), len(golden))
	}
}

// TestSteadyStateAllocs budgets the hot path's allocations: with the
// arena pool warm, Compress and Decompress must allocate O(1) — the
// returned stream/reconstruction plus small fixed headers — never
// O(points). A regression back to per-symbol or per-buffer allocation
// blows these budgets by orders of magnitude.
func TestSteadyStateAllocs(t *testing.T) {
	f, err := datagen.Generate("CESM", "TMQ", 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(1e-3)
	stream, _, err := Compress(f.Data, f.Dims, cfg)
	if err != nil {
		t.Fatal(err)
	}

	compressAllocs := testing.AllocsPerRun(10, func() {
		if _, _, err := Compress(f.Data, f.Dims, cfg); err != nil {
			t.Fatal(err)
		}
	})
	// Measured ~30 in steady state (stream, marshal, flate buffer growth,
	// table window, stats); 3x headroom absorbs runtime noise while still
	// failing hard on any O(points) regression (which adds thousands).
	if compressAllocs > 90 {
		t.Errorf("Compress steady state: %.0f allocs/run, budget 90", compressAllocs)
	}

	decompressAllocs := testing.AllocsPerRun(10, func() {
		if _, _, err := Decompress(stream); err != nil {
			t.Fatal(err)
		}
	})
	if decompressAllocs > 60 {
		t.Errorf("Decompress steady state: %.0f allocs/run, budget 60", decompressAllocs)
	}
}

// TestHotPathThroughputGain is a coarse same-host sanity gate under `go
// test`: the overhauled decompress path must beat the pinned reference by
// a comfortable margin (the full ≥2x/≥1.3x acceptance is tracked by
// BENCH_hotpath.json at proper benchmark iteration counts; this guards
// against wiring the reference path back into production by mistake).
func TestHotPathThroughputGain(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	f, err := datagen.Generate("CESM", "TMQ", 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(1e-3)
	stream, _, err := Compress(f.Data, f.Dims, cfg)
	if err != nil {
		t.Fatal(err)
	}
	time := func(fn func()) float64 {
		best := math.Inf(1)
		for r := 0; r < 5; r++ {
			start := nowSec()
			fn()
			if d := nowSec() - start; d < best {
				best = d
			}
		}
		return best
	}
	newSec := time(func() {
		if _, _, err := Decompress(stream); err != nil {
			t.Fatal(err)
		}
	})
	refSec := time(func() {
		if _, _, err := DecompressReference(stream); err != nil {
			t.Fatal(err)
		}
	})
	if refSec < newSec {
		t.Errorf("table-driven decompress (%.2gs) slower than the bit-by-bit reference (%.2gs)", newSec, refSec)
	}
}

// TestFreqsScratchCleanCertificate pins the arena's frequency-table
// zeroing contract: the all-zero certificate is a LENGTH, so a later run
// with a larger alphabet that fits capacity must still get zeros beyond
// the previously certified prefix (stale counts there would mint phantom
// symbols into the next Huffman table).
func TestFreqsScratchCleanCertificate(t *testing.T) {
	a := &arena{}
	f := a.freqsScratch(100)
	for i := range f {
		f[i] = 7 // a run dirties the whole table...
	}
	a.freqsCleanLen = 50 // ...but certifies only a 50-entry prefix

	g := a.freqsScratch(100)
	for i, v := range g {
		if v != 0 {
			t.Fatalf("entry %d = %d after partial certificate, want 0", i, v)
		}
	}
	for i := range g {
		g[i] = 9
	}
	a.freqsCleanLen = 100 // full certificate (but entries are 9 — simulate a lying run)
	// A smaller request inside a full certificate skips the clear; the
	// certificate is consumed either way.
	h := a.freqsScratch(40)
	if len(h) != 40 {
		t.Fatalf("len = %d", len(h))
	}
	if a.freqsCleanLen != 0 {
		t.Fatal("certificate not consumed on handout")
	}
	// After an aborted run (no re-certification) everything is cleared.
	k := a.freqsScratch(100)
	for i, v := range k {
		if v != 0 {
			t.Fatalf("entry %d = %d after aborted run, want 0", i, v)
		}
	}
}

// TestCompressAfterRadiusChange: byte-identity must survive arena reuse
// across runs with different quantizer radii (different alphabet sizes
// sharing one pooled frequency table).
func TestCompressAfterRadiusChange(t *testing.T) {
	data := hotpathField(1200)
	for _, radius := range []int{64, 4096, 0, 128, 0} {
		cfg := DefaultConfig(1e-3)
		cfg.Radius = radius
		got, _, err := Compress(data, []int{30, 40}, cfg)
		if err != nil {
			t.Fatalf("radius %d: %v", radius, err)
		}
		want, _, err := CompressReference(data, []int{30, 40}, cfg)
		if err != nil {
			t.Fatalf("radius %d: %v", radius, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("radius %d: stream differs from reference after arena reuse", radius)
		}
	}
}
