// Package szx implements an SZx-style ultra-fast error-bounded lossy
// compressor (Yu et al., "SZx: an Ultra-fast Error-Bounded Lossy
// Compressor for Scientific Datasets"). Where the SZ3-style pipeline in
// internal/sz spends its time on prediction, Huffman coding, and a
// lossless backend to maximize ratio, szx makes one cheap pass over
// fixed-size blocks of the linearized field:
//
//   - constant blocks (value spread ≤ 2×eb) store a single midpoint;
//   - linear blocks (a first→last ramp predicts every value within eb)
//     store two coefficients;
//   - everything else packs per-value offsets from the block minimum,
//     quantized to the error bound, at the minimum bit width the block
//     needs — no entropy coding, no lossless stage;
//   - blocks with non-finite values or extreme dynamic range escape to
//     verbatim float64 storage, so the bound holds unconditionally.
//
// The result is GB/s-class throughput at a lower compression ratio — the
// other end of the speed/ratio spectrum the codec-aware planner trades
// across: szx wins end-to-end on fast links where compression time
// dominates, sz3 on slow links where every byte moved is expensive.
package szx

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"ocelot/internal/bitstream"
	"ocelot/internal/codec"
	"ocelot/internal/quant"
)

// Name is the codec's registry key.
const Name = "szx"

// Magic identifies an Ocelot-SZX stream ("OCSX", little-endian).
const Magic = 0x5853434F

// streamVersion is bumped on incompatible layout changes.
const streamVersion = 1

// DefaultBlockSize is the number of values per block. 256 keeps block
// headers under 5% of payload even at 1-bit packing while the per-block
// min/max scan stays in cache.
const DefaultBlockSize = 256

// MaxBlockSize bounds the per-block value count on both the compress and
// decompress paths. It caps the worst-case expansion of a decoded stream
// at MaxBlockSize/9 values per input byte, so a crafted header cannot
// turn a kilobyte of input into gigabytes of output.
const MaxBlockSize = 4096

// maxPackedBits caps the per-value bit width of a packed block; a block
// whose offset range needs more than this escapes to raw storage (packing
// 40-bit offsets already beats raw float64 by 37%, and wider offsets mean
// the bound is tiny relative to the block's spread — raw is the honest
// fallback there).
const maxPackedBits = 40

// Block tags, one byte ahead of every block payload.
const (
	tagConstant = 0x00 // one float64 midpoint reconstructs every value
	tagLinear   = 0x01 // float64 intercept + slope ramp
	tagPacked   = 0x02 // float64 base + bit width + packed offsets
	tagRaw      = 0x03 // verbatim float64 values (lossless escape)
)

// ErrCorrupt indicates a malformed szx stream.
var ErrCorrupt = errors.New("szx: corrupt stream")

// header layout: magic u32 | version u8 | blockSize u32 | absEB f64 |
// ndims u8 | dims u64 each.
const headerFixed = 4 + 1 + 4 + 8 + 1

// Compress encodes a row-major field (dims[0] slowest) under the absolute
// error bound absEB with the default block size.
func Compress(data []float64, dims []int, absEB float64) ([]byte, error) {
	return CompressBlocked(data, dims, absEB, DefaultBlockSize)
}

// CompressBlocked is Compress with an explicit block size (values per
// block; ≤ 0 selects DefaultBlockSize).
func CompressBlocked(data []float64, dims []int, absEB float64, blockSize int) ([]byte, error) {
	if absEB <= 0 || math.IsNaN(absEB) || math.IsInf(absEB, 0) {
		return nil, fmt.Errorf("szx: error bound must be positive and finite (got %g)", absEB)
	}
	if err := codec.ValidateDims(len(data), dims); err != nil {
		return nil, fmt.Errorf("szx: %w", err)
	}
	if len(data) == 0 {
		return nil, errors.New("szx: empty input")
	}
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	if blockSize > MaxBlockSize {
		blockSize = MaxBlockSize
	}

	out := make([]byte, 0, headerFixed+8*len(dims)+len(data)/2)
	out = marshalHeader(out, absEB, blockSize, dims)

	var b8 [8]byte
	putF64 := func(v float64) {
		binary.LittleEndian.PutUint64(b8[:], math.Float64bits(v))
		out = append(out, b8[:]...)
	}
	ks := make([]uint64, blockSize)

	for start := 0; start < len(data); start += blockSize {
		end := start + blockSize
		if end > len(data) {
			end = len(data)
		}
		block := data[start:end]

		tag, mid, slope, nbits := classifyBlock(block, absEB, ks)
		out = append(out, tag)
		switch tag {
		case tagConstant:
			putF64(mid)
		case tagLinear:
			putF64(mid) // intercept
			putF64(slope)
		case tagPacked:
			putF64(mid) // base
			out = append(out, nbits)
			out = bitstream.AppendPacked(out, ks[:len(block)], uint(nbits))
		case tagRaw:
			for _, v := range block {
				putF64(v)
			}
		}
	}
	return out, nil
}

// classifyBlock picks the cheapest representation that preserves the
// bound. For tagConstant mid is the stored midpoint; for tagLinear mid is
// the intercept and slope the per-index step; for tagPacked mid is the
// base, nbits the per-value width, and ks[:len(block)] the offsets.
func classifyBlock(block []float64, eb float64, ks []uint64) (tag byte, mid, slope float64, nbits byte) {
	lo, hi := block[0], block[0]
	finite := true
	for _, v := range block {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			finite = false
			break
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if !finite {
		return tagRaw, 0, 0, 0
	}

	// Constant: one midpoint covers the whole spread. The explicit
	// endpoint checks (not just hi−lo ≤ 2eb) keep the guarantee exact
	// under floating-point rounding of the midpoint.
	m := (lo + hi) / 2
	if math.Abs(m-lo) <= eb && math.Abs(m-hi) <= eb {
		return tagConstant, m, 0, 0
	}

	// Linear: first→last ramp. Decode replays the identical float64
	// arithmetic, so checking the encoder's prediction checks the bound.
	if n := len(block); n >= 2 {
		a := block[0]
		s := (block[n-1] - block[0]) / float64(n-1)
		ok := true
		for i, v := range block {
			if math.Abs(v-(a+s*float64(i))) > eb {
				ok = false
				break
			}
		}
		if ok {
			return tagLinear, a, s, 0
		}
	}

	// Packed: offsets from the block minimum in 2eb steps at the minimum
	// width the block's spread needs.
	step := 2 * eb
	var maxK uint64
	for i, v := range block {
		d := (v - lo) / step
		if d > float64(uint64(1)<<maxPackedBits) {
			return tagRaw, 0, 0, 0
		}
		k := uint64(d + 0.5)
		// Floating-point rounding can push the recovered value past the
		// bound; escape the whole block in that (rare) case.
		if math.Abs(lo+float64(k)*step-v) > eb {
			return tagRaw, 0, 0, 0
		}
		ks[i] = k
		if k > maxK {
			maxK = k
		}
	}
	nb := byte(1)
	for maxK>>nb != 0 {
		nb++
	}
	if nb > maxPackedBits {
		return tagRaw, 0, 0, 0
	}
	return tagPacked, lo, 0, nb
}

// Decompress decodes a stream produced by Compress, returning the
// reconstruction and its shape.
func Decompress(stream []byte) ([]float64, []int, error) {
	absEB, blockSize, dims, body, err := parseHeader(stream)
	if err != nil {
		return nil, nil, err
	}
	n := 1
	for _, d := range dims {
		n *= d
	}
	// Every block costs at least 9 body bytes (tag + one float64), so a
	// header claiming more points than the body can possibly carry is
	// corrupt — reject before reserving memory for it, and cap the
	// preallocation since the headers are attacker-controlled until the
	// body actually decodes.
	nBlocks := (n + blockSize - 1) / blockSize
	if len(body) < 9*nBlocks {
		return nil, nil, fmt.Errorf("szx: body %d bytes cannot hold %d blocks: %w", len(body), nBlocks, ErrCorrupt)
	}
	capHint := n
	if capHint > 1<<24 {
		capHint = 1 << 24
	}
	out := make([]float64, 0, capHint)
	step := 2 * absEB
	off := 0
	readF64 := func() (float64, bool) {
		if off+8 > len(body) {
			return 0, false
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(body[off : off+8]))
		off += 8
		return v, true
	}
	for len(out) < n {
		if off >= len(body) {
			return nil, nil, fmt.Errorf("szx: truncated body at %d of %d points: %w", len(out), n, ErrCorrupt)
		}
		bn := blockSize
		if rem := n - len(out); rem < bn {
			bn = rem
		}
		tag := body[off]
		off++
		switch tag {
		case tagConstant:
			v, ok := readF64()
			if !ok {
				return nil, nil, ErrCorrupt
			}
			for i := 0; i < bn; i++ {
				out = append(out, v)
			}
		case tagLinear:
			a, ok := readF64()
			s, ok2 := readF64()
			if !ok || !ok2 {
				return nil, nil, ErrCorrupt
			}
			for i := 0; i < bn; i++ {
				out = append(out, a+s*float64(i))
			}
		case tagPacked:
			base, ok := readF64()
			if !ok || off >= len(body) {
				return nil, nil, ErrCorrupt
			}
			nbits := body[off]
			off++
			if nbits == 0 || nbits > maxPackedBits {
				return nil, nil, fmt.Errorf("szx: packed width %d: %w", nbits, ErrCorrupt)
			}
			nbytes := (bn*int(nbits) + 7) / 8
			if off+nbytes > len(body) {
				return nil, nil, ErrCorrupt
			}
			r := bitstream.NewReader(body[off : off+nbytes])
			off += nbytes
			for i := 0; i < bn; i++ {
				k, err := r.ReadBits(uint(nbits))
				if err != nil {
					return nil, nil, fmt.Errorf("szx: %w", ErrCorrupt)
				}
				out = append(out, base+float64(k)*step)
			}
		case tagRaw:
			if off+8*bn > len(body) {
				return nil, nil, ErrCorrupt
			}
			for i := 0; i < bn; i++ {
				v, _ := readF64()
				out = append(out, v)
			}
		default:
			return nil, nil, fmt.Errorf("szx: unknown block tag %#x: %w", tag, ErrCorrupt)
		}
	}
	if off != len(body) {
		return nil, nil, fmt.Errorf("szx: %d trailing bytes: %w", len(body)-off, ErrCorrupt)
	}
	outDims := make([]int, len(dims))
	copy(outDims, dims)
	return out, outDims, nil
}

// StreamDims parses just the header and returns the field shape.
func StreamDims(stream []byte) ([]int, error) {
	_, _, dims, _, err := parseHeader(stream)
	return dims, err
}

func marshalHeader(out []byte, absEB float64, blockSize int, dims []int) []byte {
	var b4 [4]byte
	var b8 [8]byte
	binary.LittleEndian.PutUint32(b4[:], Magic)
	out = append(out, b4[:]...)
	out = append(out, streamVersion)
	binary.LittleEndian.PutUint32(b4[:], uint32(blockSize))
	out = append(out, b4[:]...)
	binary.LittleEndian.PutUint64(b8[:], math.Float64bits(absEB))
	out = append(out, b8[:]...)
	out = append(out, byte(len(dims)))
	for _, d := range dims {
		binary.LittleEndian.PutUint64(b8[:], uint64(d))
		out = append(out, b8[:]...)
	}
	return out
}

func parseHeader(stream []byte) (absEB float64, blockSize int, dims []int, body []byte, err error) {
	if len(stream) < headerFixed {
		return 0, 0, nil, nil, ErrCorrupt
	}
	if binary.LittleEndian.Uint32(stream[:4]) != Magic {
		return 0, 0, nil, nil, fmt.Errorf("szx: bad magic: %w", ErrCorrupt)
	}
	if stream[4] != streamVersion {
		return 0, 0, nil, nil, fmt.Errorf("szx: unsupported version %d: %w", stream[4], ErrCorrupt)
	}
	blockSize = int(binary.LittleEndian.Uint32(stream[5:9]))
	if blockSize <= 0 || blockSize > MaxBlockSize {
		return 0, 0, nil, nil, fmt.Errorf("szx: block size %d: %w", blockSize, ErrCorrupt)
	}
	absEB = math.Float64frombits(binary.LittleEndian.Uint64(stream[9:17]))
	if absEB <= 0 || math.IsNaN(absEB) || math.IsInf(absEB, 0) {
		return 0, 0, nil, nil, fmt.Errorf("szx: bad error bound: %w", ErrCorrupt)
	}
	nd := int(stream[17])
	if nd == 0 || nd > codec.MaxDims {
		return 0, 0, nil, nil, ErrCorrupt
	}
	need := headerFixed + 8*nd
	if len(stream) < need {
		return 0, 0, nil, nil, ErrCorrupt
	}
	dims = make([]int, nd)
	total := uint64(1)
	for i := 0; i < nd; i++ {
		d := binary.LittleEndian.Uint64(stream[headerFixed+8*i : headerFixed+8*i+8])
		if d == 0 || d > 1<<32 {
			return 0, 0, nil, nil, ErrCorrupt
		}
		// Check before multiplying: the product must stay ≤ 2^40 without
		// ever wrapping, or a crafted header reaches downstream
		// allocations with a negative point count.
		if total > (1<<40)/d {
			return 0, 0, nil, nil, ErrCorrupt
		}
		total *= d
		dims[i] = int(d)
	}
	return absEB, blockSize, dims, stream[need:], nil
}

// Probe runs the cheap sampling pass the quality predictor's
// compressor-based features need: every stride-th point is quantized
// against its block's first value — the base a packed block would offset
// from — on the shared quantizer alphabet (escape = 0, zero bin =
// radius). Constant-block-heavy fields therefore show a high p0 exactly
// as a real szx run would spend almost no bits on them.
func Probe(data []float64, dims []int, absEB float64, stride int) ([]int, error) {
	if absEB <= 0 || math.IsNaN(absEB) || math.IsInf(absEB, 0) {
		return nil, fmt.Errorf("szx: error bound must be positive and finite (got %g)", absEB)
	}
	if err := codec.ValidateDims(len(data), dims); err != nil {
		return nil, fmt.Errorf("szx: %w", err)
	}
	if stride < 1 {
		stride = 1
	}
	q := quant.New(absEB, 0)
	codes := make([]int, 0, len(data)/stride+1)
	for idx := 0; idx < len(data); idx += stride {
		base := data[idx-idx%DefaultBlockSize]
		code, _, ok := q.Quantize(data[idx], base)
		if !ok {
			code = quant.EscapeCode
		}
		codes = append(codes, code)
	}
	if len(codes) == 0 {
		return nil, errors.New("szx: sampling produced no points")
	}
	return codes, nil
}
