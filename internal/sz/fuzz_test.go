package sz

import (
	"bytes"
	"math"
	"testing"

	"ocelot/internal/codec"

	// Register the szx codec so registry dispatch on fuzzed magics covers
	// every stream family the campaign engine can encounter.
	_ "ocelot/internal/szx"
)

// fuzzSeeds builds valid streams of every registered family — plain sz3,
// each predictor, a chunked container, and an szx stream via the registry
// — so mutation starts from deep inside the accept space. The checked-in
// corpus under testdata/fuzz holds byte-frozen copies plus crafted
// corruptions; these programmatic seeds track the implementation as it
// evolves.
func fuzzSeeds(f *testing.F) [][]byte {
	f.Helper()
	data := make([]float64, 600)
	for i := range data {
		data[i] = float64(i%37) * 0.25
	}
	var seeds [][]byte
	for _, p := range []Predictor{PredictorLorenzo, PredictorInterp, PredictorRegression} {
		cfg := DefaultConfig(1e-3)
		cfg.Predictor = p
		stream, _, err := Compress(data, []int{20, 30}, cfg)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, stream)
	}
	// Table-boundary seed: four in five residuals cluster near the zero
	// bin, the rest scatter across ~thousands of distinct bins with
	// frequency one, so the canonical code lengths straddle the decoder's
	// 12-bit primary table and mutation starts from a stream whose decode
	// crosses into the overflow (second-level) path.
	longTail := make([]float64, 8000)
	acc := 0.0
	for i := range longTail {
		r := float64((uint32(i+1)*2654435761)%2000) - 1000 // deterministic noise in ±1000
		if i%5 == 0 {
			acc += r * 20 // wide bin, mostly unique
		} else {
			acc += r * 0.01 // near-zero bin
		}
		longTail[i] = acc * 1e-3
	}
	cfgTail := DefaultConfig(1e-3)
	cfgTail.Predictor = PredictorLorenzo
	tailStream, _, err := Compress(longTail, []int{8000}, cfgTail)
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, tailStream)
	// NOTE: the chunked container must stay at len(seeds)-2 — see
	// FuzzSplitChunked.
	chunked, _, err := CompressChunked(data, []int{20, 30}, DefaultConfig(1e-3), 150)
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, chunked)
	szxc, err := codec.Lookup("szx")
	if err != nil {
		f.Fatal(err)
	}
	szxStream, err := szxc.Compress(data, []int{600}, codec.Params{AbsErrorBound: 1e-3})
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, szxStream)
	return seeds
}

// FuzzDecompress feeds arbitrary bytes to the registry's decode dispatch
// — the path every grouped-archive member and chunked-container payload
// crosses. Any input may error (including unknown codec magic), but none
// may panic, and a successful decode must be shape-consistent.
func FuzzDecompress(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Add([]byte{})
	f.Add([]byte{0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3}) // unknown magic
	f.Fuzz(func(t *testing.T, stream []byte) {
		recon, dims, err := codec.Decompress(stream)
		if err != nil {
			return
		}
		n := 1
		for _, d := range dims {
			if d <= 0 {
				t.Fatalf("non-positive dim %d in %v", d, dims)
			}
			n *= d
		}
		if n != len(recon) {
			t.Fatalf("dims %v product %d != %d reconstructed points", dims, n, len(recon))
		}
	})
}

// FuzzSplitChunked attacks the OCSC container framing: splitting must
// never panic, and when it succeeds, every chunk must either decode
// consistently or error cleanly through the registry.
func FuzzSplitChunked(f *testing.F) {
	seeds := fuzzSeeds(f)
	f.Add(seeds[len(seeds)-2]) // the chunked container
	f.Add([]byte{0x43, 0x53, 0x43, 0x4F, 1, 0, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, stream []byte) {
		chunks, err := SplitChunked(stream)
		if err != nil {
			return
		}
		if len(chunks) == 0 {
			t.Fatal("SplitChunked returned no chunks without error")
		}
		if _, err := ChunkedDims(stream); err != nil {
			// Chunk payloads may still be garbage; ChunkedDims erroring is
			// fine, panicking is not.
			return
		}
		for _, c := range chunks {
			if _, _, err := codec.Decompress(c); err != nil {
				return
			}
		}
	})
}

// FuzzHeaderParse hammers the low-level sz3 parsers (fixed header and
// inner payload) directly, below the magic dispatch.
func FuzzHeaderParse(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Add([]byte{0x5A, 0x53, 0x43, 0x4F, 1, 1, 2, 1})
	f.Fuzz(func(t *testing.T, stream []byte) {
		if h, body, err := parseHeader(stream); err == nil {
			if h == nil || len(h.dims) == 0 {
				t.Fatal("parseHeader succeeded with no dims")
			}
			if len(body) > len(stream) {
				t.Fatal("body longer than stream")
			}
		}
		if p, err := parseInnerPayload(stream); err == nil && p == nil {
			t.Fatal("parseInnerPayload succeeded with nil payload")
		}
	})
}

// fuzzInterpField derives an interp run from fuzz inputs: a 1-D to 4-D
// shape of at most 4096 points, a smooth signal perturbed by raw (bytes
// 0xFF, 0xFE and 0xFD inject NaN, +Inf and -Inf, 0xFC a huge value), and
// a config whose radius may exceed 2^15 so codes ride the wide lane.
func fuzzInterpField(nd uint8, ext [4]uint8, linear bool, eb float64, radius uint16, raw []byte) ([]float64, []int, Config) {
	dims := make([]int, 1+int(nd)%4)
	n := 1
	for i := range dims {
		dims[i] = 1 + int(ext[i])%24
		n *= dims[i]
	}
	for n > 4096 {
		big := 0
		for i := range dims {
			if dims[i] > dims[big] {
				big = i
			}
		}
		n = n / dims[big] * (dims[big] / 2)
		dims[big] /= 2
	}
	data := make([]float64, n)
	for i := range data {
		v := 10 * math.Sin(float64(i)*0.37)
		if len(raw) > 0 {
			switch b := raw[i%len(raw)]; b {
			case 0xFF:
				v = math.NaN()
			case 0xFE:
				v = math.Inf(1)
			case 0xFD:
				v = math.Inf(-1)
			case 0xFC:
				v = 1e300
			default:
				v += float64(int8(b)) * 0.01
			}
		}
		data[i] = v
	}
	if !(eb > 0) || math.IsInf(eb, 0) {
		eb = 1e-3
	}
	cfg := DefaultConfig(eb)
	if linear {
		cfg.Interp = InterpLinear
	}
	cfg.Radius = int(radius)
	return data, dims, cfg
}

// FuzzInterpVsReference pins the interp line kernel to the frozen
// per-point traversal in reference.go: for any shape, mode, bound, radius
// and values (non-finite included), Compress must emit the reference's
// stream byte for byte and Decompress must rebuild the reference decoder's
// values bit for bit.
func FuzzInterpVsReference(f *testing.F) {
	smooth := []byte{0, 1, 2, 3, 250, 7}
	nonFinite := []byte{0, 0xFF, 3, 0xFE, 9, 0xFD, 0xFC, 4}
	f.Add(uint8(1), uint8(29), uint8(40), uint8(0), uint8(0), false, 1e-3, uint16(0), smooth)
	f.Add(uint8(2), uint8(10), uint8(12), uint8(16), uint8(0), true, 1e-3, uint16(0), smooth)
	f.Add(uint8(3), uint8(4), uint8(6), uint8(5), uint8(8), false, 1e-2, uint16(0), smooth)
	f.Add(uint8(3), uint8(4), uint8(0), uint8(1), uint8(2), true, 1e-3, uint16(0), smooth)
	f.Add(uint8(0), uint8(2), uint8(0), uint8(0), uint8(0), false, 1e-3, uint16(0), smooth)
	f.Add(uint8(1), uint8(20), uint8(23), uint8(0), uint8(0), false, 1e-3, uint16(0), nonFinite)
	f.Add(uint8(0), uint8(23), uint8(0), uint8(0), uint8(0), true, 1e-6, uint16(40000), smooth)
	f.Add(uint8(1), uint8(17), uint8(11), uint8(0), uint8(0), false, 1e308, uint16(3), nonFinite)
	f.Fuzz(func(t *testing.T, nd, e0, e1, e2, e3 uint8, linear bool, eb float64, radius uint16, raw []byte) {
		data, dims, cfg := fuzzInterpField(nd, [4]uint8{e0, e1, e2, e3}, linear, eb, radius, raw)
		got, _, err := Compress(data, dims, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := CompressReference(data, dims, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("dims %v %v: stream differs from reference (%d vs %d bytes)", dims, cfg.Interp, len(got), len(want))
		}
		recon, _, err := Decompress(got)
		if err != nil {
			t.Fatal(err)
		}
		refRecon, _, err := DecompressReference(got)
		if err != nil {
			t.Fatal(err)
		}
		for i := range recon {
			if math.Float64bits(recon[i]) != math.Float64bits(refRecon[i]) {
				t.Fatalf("dims %v %v: reconstruction differs at %d: %g vs %g", dims, cfg.Interp, i, recon[i], refRecon[i])
			}
		}
	})
}
