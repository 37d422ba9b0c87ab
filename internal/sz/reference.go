package sz

import (
	"fmt"
	"math"

	"ocelot/internal/huffman"
	"ocelot/internal/lossless"
	"ocelot/internal/quant"
)

// This file pins the pre-overhaul sz3 pipeline as an executable baseline.
// Its entropy stage keeps the old shape: quantization codes materialized as
// []int (eight bytes per symbol), a separate frequency-count pass, the
// regrow-prone ReferenceEncode, the bit-by-bit ReferenceDecode, and fresh
// allocations for every buffer. Its interpolation traversal is the frozen
// per-point odometer (refInterpTraverse below): one interpPredict-style
// call and one traversal.process call per point, shared between encode and
// decode. The production interp path runs the line kernel in interp.go
// instead, so the pair measures both the entropy-stage and the
// traversal differences. Lorenzo and regression still share their
// traversals (and process) with production.
//
// Two jobs, mirroring huffman's reference.go:
//
//   - Byte-compatibility oracle: TestCompressMatchesReference and
//     FuzzInterpVsReference assert the production path emits bit-identical
//     streams and reconstructions. Because the interp traversal here is an
//     independent implementation, a change to the line kernel that alters
//     visit order, prediction arithmetic or escape rules shows up as a
//     mismatch, not only as a golden-file diff.
//   - Benchmark baseline: the HotPath experiment and BENCH_hotpath.json
//     report the production path's MB/s beside these functions' on the
//     same machine, so speedups are a same-host relative measure rather
//     than a stale absolute number.

// CompressReference is the pre-overhaul Compress. It produces streams
// byte-identical to Compress — only slower, with the old allocation
// profile. Retained as the hot-path benchmark baseline; new code should
// call Compress.
func CompressReference(data []float64, dims []int, cfg Config) ([]byte, *Stats, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	if err := validateDims(len(data), dims); err != nil {
		return nil, nil, err
	}
	if len(data) == 0 {
		return nil, nil, fmt.Errorf("sz: empty input")
	}
	absEB := cfg.AbsoluteBound(data)
	q := quant.New(absEB, cfg.Radius)
	c := &traversal{
		q:     q,
		data:  data,
		recon: make([]float64, len(data)),
		syms:  &huffman.SymbolStream{Packed: make([]uint16, 0, len(data))},
		// freqs nil: the reference counts frequencies in its own pass
		// below, exactly as the pre-overhaul encodeCodes did.
	}
	if err := runPredictorReference(c, dims, cfg); err != nil {
		return nil, nil, err
	}
	codes := c.syms.Ints() // the old []int materialization

	huffBytes, huffStats, err := encodeCodesReference(codes, q.AlphabetSize())
	if err != nil {
		return nil, nil, err
	}
	inner := &innerPayload{literals: c.literals, coeffs: c.coeffs, huffman: huffBytes}
	body, err := lossless.ReferenceCompress(inner.marshal(), cfg.Backend)
	if err != nil {
		return nil, nil, err
	}
	h := &header{
		predictor: cfg.Predictor,
		interp:    cfg.Interp,
		boundMode: cfg.BoundMode,
		radius:    q.Radius(),
		absEB:     absEB,
		dims:      dims,
	}
	stream := append(h.marshal(), body...)

	st := &Stats{
		NumPoints:       len(data),
		CompressedBytes: len(stream),
		NumEscapes:      len(c.literals),
		P0Quant:         huffStats.p0,
		HuffP0:          huffStats.bitShare0,
		QuantEntropy:    huffStats.entropy,
		HuffmanBits:     huffStats.totalBits,
	}
	return stream, st, nil
}

// DecompressReference is the pre-overhaul Decompress: the bit-by-bit
// bucket decoder into []int codes, fresh buffers throughout. (Chunked
// containers are not routed — it exists to benchmark the single-stream
// path.)
func DecompressReference(stream []byte) ([]float64, []int, error) {
	h, body, err := parseHeader(stream)
	if err != nil {
		return nil, nil, err
	}
	innerBytes, err := lossless.ReferenceDecompress(body)
	if err != nil {
		return nil, nil, fmt.Errorf("sz: body: %w", err)
	}
	inner, err := parseInnerPayload(innerBytes)
	if err != nil {
		return nil, nil, err
	}
	codes, err := huffman.ReferenceDecode(inner.huffman)
	if err != nil {
		return nil, nil, fmt.Errorf("sz: codes: %w", err)
	}
	n := 1
	for _, d := range h.dims {
		n *= d
	}
	if len(codes) != n {
		return nil, nil, fmt.Errorf("sz: code count %d != points %d: %w", len(codes), n, ErrCorrupt)
	}
	escapes := 0
	for _, code := range codes {
		if code == quant.EscapeCode {
			escapes++
		}
	}
	if escapes != len(inner.literals) {
		return nil, nil, fmt.Errorf("sz: %d escape codes for %d literals: %w", escapes, len(inner.literals), ErrCorrupt)
	}
	var syms huffman.SymbolStream
	syms.Packed = make([]uint16, 0, len(codes))
	syms.AppendInts(codes)
	c := &traversal{
		q:        quant.New(h.absEB, h.radius),
		recon:    make([]float64, n),
		syms:     &syms,
		literals: inner.literals,
		coeffs:   inner.coeffs,
	}
	cfg := Config{
		ErrorBound: h.absEB,
		BoundMode:  BoundAbsolute,
		Predictor:  h.predictor,
		Interp:     h.interp,
		Radius:     h.radius,
		BlockSide:  6,
	}
	if err := runPredictorReference(c, h.dims, cfg); err != nil {
		return nil, nil, err
	}
	if c.litIdx != len(c.literals) {
		return nil, nil, fmt.Errorf("sz: %d literals unconsumed: %w", len(c.literals)-c.litIdx, ErrCorrupt)
	}
	dims := make([]int, len(h.dims))
	copy(dims, h.dims)
	return c.recon, dims, nil
}

// encodeCodesReference is the pre-overhaul encodeCodes: a dedicated
// frequency pass over the []int codes, the regrow-prone encoder, and a
// locally duplicated entropy loop (the duplication the production path
// removed in favour of metrics.SymbolEntropyFromCounts).
func encodeCodesReference(codes []int, alphabet int) ([]byte, huffRunStats, error) {
	var st huffRunStats
	freqs := make([]uint64, alphabet)
	for _, s := range codes {
		freqs[s]++
	}
	zero := alphabet / 2 // quantizer zero bin
	if len(codes) > 0 {
		st.p0 = float64(freqs[zero]) / float64(len(codes))
		st.entropy = refSymbolEntropy(freqs, len(codes))
	}
	if len(codes) == 0 {
		freqs[0] = 1
	}
	table, err := huffman.ReferenceBuildTable(freqs)
	if err != nil {
		return nil, st, err
	}
	totalBits := 0
	for sym, f := range freqs {
		if f > 0 {
			c := table.CodeFor(sym)
			totalBits += int(f) * int(c.Len)
		}
	}
	if len(codes) == 0 {
		totalBits = 0
	}
	st.totalBits = totalBits
	if totalBits > 0 {
		st.bitShare0 = float64(uint64(table.CodeFor(zero).Len)*freqs[zero]) / float64(totalBits)
	}
	enc, err := huffman.ReferenceEncode(codes, table)
	if err != nil {
		return nil, st, err
	}
	return enc, st, nil
}

// refSymbolEntropy is the entropy loop exactly as the pre-overhaul
// compressor carried it.
func refSymbolEntropy(freqs []uint64, total int) float64 {
	if total == 0 {
		return 0
	}
	var h float64
	ft := float64(total)
	for _, f := range freqs {
		if f == 0 {
			continue
		}
		p := float64(f) / ft
		h -= p * math.Log2(p)
	}
	return h
}

// runPredictorReference is runPredictor with the frozen per-point interp
// traversal in place of the line kernel.
func runPredictorReference(c *traversal, dims []int, cfg Config) error {
	if cfg.Predictor == PredictorInterp {
		refInterpTraverse(c, dims, cfg.Interp)
		return nil
	}
	return runPredictor(c, dims, cfg)
}

// refInterpTraverse is the pre-line-kernel SZ3-interp traversal, frozen as
// the oracle for interp.go. Values on a coarse lattice are refined level by
// level: at each level with spacing `stride`, the midpoints (odd multiples
// of stride/2) along each axis are predicted by 1-D interpolation from
// already-reconstructed lattice neighbors at distance stride/2.
//
// The traversal visits every point exactly once: a point whose minimum
// 2-adic valuation across coordinates is v is processed at level h = 2^v on
// the last axis whose coordinate has valuation v. The same deterministic
// order runs during compression and decompression.
func refInterpTraverse(c *traversal, dims []int, mode InterpMode) {
	nd := len(dims)
	strides := rowMajorStrides(dims)
	maxDim := 0
	for _, d := range dims {
		if d > maxDim {
			maxDim = d
		}
	}
	// Seed: the origin predicted as 0.
	c.process(0, 0)
	if maxDim == 1 {
		// Degenerate: handle remaining points (other dims may exceed 1 only
		// if maxDim > 1, so nothing remains).
		return
	}
	top := 1
	for top < maxDim {
		top <<= 1
	}
	for stride := top; stride >= 2; stride >>= 1 {
		h := stride / 2
		for d := 0; d < nd; d++ {
			refInterpAxis(c, dims, strides, d, stride, h, mode)
		}
	}
}

// refInterpAxis predicts all points p with p[d] ≡ h (mod stride), p[a<d] ≡ 0
// (mod h), p[a>d] ≡ 0 (mod stride).
func refInterpAxis(c *traversal, dims, strides []int, d, stride, h int, mode InterpMode) {
	nd := len(dims)
	// Step sizes per axis for the odometer.
	steps := make([]int, nd)
	for a := 0; a < nd; a++ {
		switch {
		case a < d:
			steps[a] = h
		case a == d:
			steps[a] = stride
		default:
			steps[a] = stride
		}
	}
	coords := make([]int, nd)
	coords[d] = h
	if coords[d] >= dims[d] {
		return
	}
	axisStride := strides[d]
	// The flat index is maintained incrementally: stepping along axis d
	// (the overwhelmingly common advance) adds a constant, and only a
	// carry into another axis — once per line — recomputes from coords.
	// The visit order is identical to the original full recomputation, so
	// the emitted codes (and stream bytes) are unchanged.
	idx := 0
	for a := 0; a < nd; a++ {
		idx += coords[a] * strides[a]
	}
	dStep := steps[d] * axisStride
	for {
		pred := refInterpPredict(c.recon, coords[d], dims[d], axisStride, idx, h, mode)
		c.process(idx, pred)
		// Odometer advance: axis d fastest (cache-friendlier along lines),
		// then later axes, then earlier axes.
		if coords[d]+steps[d] < dims[d] {
			coords[d] += steps[d]
			idx += dStep
			continue
		}
		if !refAdvanceInterpCarry(coords, dims, steps, d) {
			return
		}
		idx = 0
		for a := 0; a < nd; a++ {
			idx += coords[a] * strides[a]
		}
	}
}

// refAdvanceInterpCarry handles the interp odometer's carry case: axis d has
// run off its extent, so reset it to h and advance the next axis
// (nd-1..0, skipping d). Returns false when the enumeration is complete.
func refAdvanceInterpCarry(coords, dims, steps []int, d int) bool {
	nd := len(dims)
	coords[d] = steps[d] / 2 // reset to h
	for a := nd - 1; a >= 0; a-- {
		if a == d {
			continue
		}
		coords[a] += steps[a]
		if coords[a] < dims[a] {
			return true
		}
		coords[a] = 0
	}
	return false
}

// refInterpPredict computes the 1-D interpolation prediction for position x
// along an axis with the given element stride. idx is the flat index of the
// point; neighbors at ±h, ±3h along the axis are addressed relative to it.
func refInterpPredict(recon []float64, x, dimLen, axisStride, idx, h int, mode InterpMode) float64 {
	left := recon[idx-h*axisStride]
	hasRight := x+h < dimLen
	if !hasRight {
		// Boundary: fall back to the nearest known value.
		return left
	}
	right := recon[idx+h*axisStride]
	if mode == InterpCubic {
		hasL3 := x-3*h >= 0
		hasR3 := x+3*h < dimLen
		if hasL3 && hasR3 {
			l3 := recon[idx-3*h*axisStride]
			r3 := recon[idx+3*h*axisStride]
			// 4-point cubic midpoint formula (-1/16, 9/16, 9/16, -1/16).
			return (-l3 + 9*left + 9*right - r3) / 16
		}
	}
	return (left + right) / 2
}
