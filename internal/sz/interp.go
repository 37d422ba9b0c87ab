package sz

import (
	"math"

	"ocelot/internal/huffman"
	"ocelot/internal/quant"
)

// lineChunk is how many predictions interpAxis computes before coding
// them. The buffer lives on interpTraverse's stack, so long lines are
// coded in runs of this many points without any allocation.
const lineChunk = 256

// interpTraverse implements the SZ3-interp multilevel traversal. Values on
// a coarse lattice are refined level by level: at each level with spacing
// `stride`, the midpoints (odd multiples of h = stride/2) along each axis
// are predicted by 1-D interpolation from already-reconstructed lattice
// neighbors at distance h (linear) or h and 3h (cubic).
//
// The traversal visits every point exactly once: a point whose minimum
// 2-adic valuation across coordinates is v is processed at level h = 2^v on
// the last axis whose coordinate has valuation v. The same deterministic
// order runs during compression and decompression, and it is the order of
// the frozen per-point traversal in reference.go, so streams are
// byte-identical to it.
//
// The work is organized as a line kernel. One axis pass at one level is a
// set of lines along axis d holding the points x = h, 3h, 5h, … < n. Every
// prediction on a line reads only points at x±h and x±3h, which are even
// multiples of h: the coarser lattice, finished before this pass. So no
// prediction on a line depends on that line's own quantization results,
// and each run of points is coded in two tight loops: predictLine fills a
// buffer of predictions (a branch-free cubic or linear interior, with the
// boundary rule only for the head x = h in cubic mode and a tail of at
// most two points), then encodeRun or decodeRun quantizes or reconstructs
// them.
func interpTraverse(c *traversal, dims []int, mode InterpMode) {
	var preds [lineChunk]float64
	var strides [4]int
	nd := len(dims)
	s := 1
	maxDim := 0
	for a := nd - 1; a >= 0; a-- {
		strides[a] = s
		s *= dims[a]
		maxDim = max(maxDim, dims[a])
	}
	// Seed: the origin predicted as 0.
	c.codeRun(preds[:1], 0, 0)
	top := 1
	for top < maxDim {
		top <<= 1
	}
	for stride := top; stride >= 2; stride >>= 1 {
		h := stride / 2
		for d := 0; d < nd; d++ {
			interpAxis(c, preds[:], dims, &strides, d, stride, h, mode)
		}
	}
}

// interpAxis codes all points p with p[d] ≡ h (mod stride), p[a<d] ≡ 0
// (mod h), p[a>d] ≡ 0 (mod stride), line by line. Lines are enumerated by
// an odometer over the other axes, the last axis fastest; along a line, x
// runs from h upward in steps of stride.
func interpAxis(c *traversal, preds []float64, dims []int, strides *[4]int, d, stride, h int, mode InterpMode) {
	n := dims[d]
	if h >= n {
		return
	}
	var axes, steps, coords [4]int
	m := 0
	for a := len(dims) - 1; a >= 0; a-- {
		if a == d {
			continue
		}
		axes[m] = a
		steps[m] = stride
		if a < d {
			steps[m] = h
		}
		m++
	}
	// [lo, hi) is the interior: the x range where the full stencil exists.
	cubic := mode == InterpCubic
	lo, hi := h, n-h
	if cubic {
		lo, hi = 3*h, n-3*h
	}
	hs := h * strides[d]
	count := (n + h - 1) / stride // points x = h, 3h, … < n
	for {
		base := 0
		for j := 0; j < m; j++ {
			base += coords[j] * strides[axes[j]]
		}
		for k := 0; k < count; k += len(preds) {
			p := preds[:min(len(preds), count-k)]
			x := h + k*stride
			idx := base + (2*k+1)*hs
			predictLine(c.recon, p, idx, x, n, h, hs, lo, hi, cubic)
			c.codeRun(p, idx, 2*hs)
		}
		j := 0
		for ; j < m; j++ {
			coords[j] += steps[j]
			if coords[j] < dims[axes[j]] {
				break
			}
			coords[j] = 0
		}
		if j == m {
			return
		}
	}
}

// predictLine fills p with the predictions for len(p) consecutive line
// points starting at coordinate x (flat index idx); hs is h times the
// axis's element stride. Points with lo ≤ x < hi take the branch-free
// interior formula; the rest take the boundary rule.
func predictLine(r, p []float64, idx, x, n, h, hs, lo, hi int, cubic bool) {
	a := pointsBelow(x, lo, 2*h, len(p))
	b := max(a, pointsBelow(x, hi, 2*h, len(p)))
	for i := 0; i < a; i++ {
		p[i] = edgePredict(r, idx+2*i*hs, x+2*i*h, n, h, hs)
	}
	if cubic {
		cubicRun(r, p[a:b], idx+2*a*hs, hs)
	} else {
		linearRun(r, p[a:b], idx+2*a*hs, hs)
	}
	for i := b; i < len(p); i++ {
		p[i] = edgePredict(r, idx+2*i*hs, x+2*i*h, n, h, hs)
	}
}

// pointsBelow counts the leading points x, x+step, … (at most m) that lie
// below bound.
func pointsBelow(x, bound, step, m int) int {
	if bound <= x {
		return 0
	}
	return min(m, (bound-x+step-1)/step)
}

// edgePredict is the boundary rule: the linear midpoint when the right
// neighbor exists, the left neighbor otherwise.
func edgePredict(r []float64, idx, x, n, h, hs int) float64 {
	left := r[idx-hs]
	if x+h >= n {
		return left
	}
	return (left + r[idx+hs]) / 2
}

// cubicRun predicts interior points with the 4-point cubic midpoint
// formula (-1/16, 9/16, 9/16, -1/16). Consecutive points share three of
// their four neighbors, so the stencil slides with one load per point.
func cubicRun(r, p []float64, idx, hs int) {
	if len(p) == 0 {
		return
	}
	l3, left, right := r[idx-3*hs], r[idx-hs], r[idx+hs]
	for i := range p {
		r3 := r[idx+3*hs]
		p[i] = (-l3 + 9*left + 9*right - r3) / 16
		l3, left, right = left, right, r3
		idx += 2 * hs
	}
}

// linearRun predicts interior points as the midpoint of their two
// neighbors, sliding the pair along the line.
func linearRun(r, p []float64, idx, hs int) {
	if len(p) == 0 {
		return
	}
	left := r[idx-hs]
	for i := range p {
		right := r[idx+hs]
		p[i] = (left + right) / 2
		left = right
		idx += 2 * hs
	}
}

// codeRun codes the points idx, idx+step, … against their predictions:
// quantize in encode mode, reconstruct in decode mode.
func (c *traversal) codeRun(preds []float64, idx, step int) {
	if c.data != nil {
		c.encodeRun(preds, idx, step)
	} else {
		c.decodeRun(preds, idx, step)
	}
}

// encodeRun is traversal.process's encode branch inlined over a run of
// points, with quant.Quantize's arithmetic and escape rules unchanged: the
// residual range test is false for NaN and ±Inf residuals, so it also
// covers the non-finite escape, and the final bound test keeps Quantize's
// `> eb` form so a NaN reconstruction is accepted exactly as before. The
// fused frequency table must be non-nil.
func (c *traversal) encodeRun(preds []float64, idx, step int) {
	data, recon, freqs := c.data, c.recon, c.freqs
	packed, wide, literals := c.syms.Packed, c.syms.Wide, c.literals
	eb, radius := c.q.ErrorBound(), c.q.Radius()
	eb2, radF := 2*eb, float64(radius)
	for _, pred := range preds {
		v := data[idx]
		if d := (v - pred) / eb2; d < radF && d > -radF {
			bin := int(math.Round(d))
			rec := pred + float64(bin)*eb2
			if bin < radius && bin > -radius && !(math.Abs(rec-v) > eb) {
				code := bin + radius
				if code < huffman.WideEscape {
					packed = append(packed, uint16(code))
				} else {
					packed = append(packed, huffman.WideEscape)
					wide = append(wide, int32(code))
				}
				freqs[code]++
				recon[idx] = rec
				idx += step
				continue
			}
		}
		packed = append(packed, quant.EscapeCode)
		freqs[quant.EscapeCode]++
		literals = append(literals, v)
		recon[idx] = v
		idx += step
	}
	c.syms.Packed, c.syms.Wide, c.literals = packed, wide, literals
}

// decodeRun is traversal.process's decode branch over a run of points,
// reconstructing with quant.Recover's arithmetic.
func (c *traversal) decodeRun(preds []float64, idx, step int) {
	recon, packed, wide, literals := c.recon, c.syms.Packed, c.syms.Wide, c.literals
	ci, wi, li := c.codeIdx, c.wideIdx, c.litIdx
	radius := c.q.Radius()
	eb2 := 2 * c.q.ErrorBound()
	for _, pred := range preds {
		code := int(packed[ci])
		ci++
		if code == huffman.WideEscape {
			code = int(wide[wi])
			wi++
		}
		if code == quant.EscapeCode {
			recon[idx] = literals[li]
			li++
		} else {
			recon[idx] = pred + float64(code-radius)*eb2
		}
		idx += step
	}
	c.codeIdx, c.wideIdx, c.litIdx = ci, wi, li
}
