// Package bitstream provides bit-granular writers and readers used by the
// entropy-coding stages of the compressors. Bits are packed MSB-first into
// bytes so that encoded streams are byte-order independent and the output of
// the canonical Huffman coder is deterministic across platforms.
//
// The Reader is built around a 64-bit accumulator refilled eight bytes at a
// time, so decoders can Peek a window of upcoming bits, resolve a symbol
// with a table lookup, and Skip its exact length — the word-at-a-time
// pattern the table-driven Huffman decoder depends on — instead of paying a
// branch per bit.
package bitstream

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrUnexpectedEOF is returned when a read requests more bits than remain.
var ErrUnexpectedEOF = errors.New("bitstream: unexpected end of stream")

// Writer accumulates bits MSB-first into an internal byte buffer.
// The zero value is ready to use.
type Writer struct {
	buf  []byte
	cur  uint64 // bits not yet flushed, left-aligned within nbits
	nbit uint   // number of valid bits in cur (0..63)
}

// NewWriter returns a Writer with capacity preallocated for sizeHint bytes.
func NewWriter(sizeHint int) *Writer {
	if sizeHint < 0 {
		sizeHint = 0
	}
	return &Writer{buf: make([]byte, 0, sizeHint)}
}

// NewWriterBuf returns a Writer that appends to buf (contents preserved,
// capacity reused). Callers that know the exact encoded size — e.g. the
// Huffman encoder, which sizes output from Table.EncodedBits — can hand in
// a preallocated buffer and avoid every regrow.
func NewWriterBuf(buf []byte) *Writer {
	return &Writer{buf: buf}
}

// AppendPacked appends the low width bits of each v in vs to dst as
// fixed-width MSB-first fields, zero-padding the last byte: the bytes a
// fresh Writer returns from Bytes after WriteBits(v, width) for each v.
// width must be in [0, 64]. The pending word stays in locals rather than
// a Writer's fields, which is what fixed-width packing loops (szx's
// packed blocks) need.
func AppendPacked(dst []byte, vs []uint64, width uint) []byte {
	if width == 0 {
		return dst
	}
	mask := ^uint64(0)
	if width < 64 {
		mask = 1<<width - 1
	}
	var cur uint64
	var nbit uint
	for _, v := range vs {
		v &= mask
		if nbit+width < 64 {
			cur = cur<<width | v
			nbit += width
			continue
		}
		// Fill the word, flush it, and seed the next with the remainder.
		take := 64 - nbit
		rem := width - take
		cur = cur<<take | v>>rem
		dst = binary.BigEndian.AppendUint64(dst, cur)
		cur = v & (1<<rem - 1)
		nbit = rem
	}
	if pad := (8 - nbit%8) % 8; pad > 0 {
		cur <<= pad
		nbit += pad
	}
	for ; nbit > 0; nbit -= 8 {
		dst = append(dst, byte(cur>>(nbit-8)))
	}
	return dst
}

// WriteBits appends the low `width` bits of v to the stream, MSB first.
// width must be in [0, 64].
func (w *Writer) WriteBits(v uint64, width uint) {
	if width == 0 {
		return
	}
	if width < 64 {
		v &= (1 << width) - 1
	}
	// Fast path: the whole value fits into the pending word.
	if free := 64 - w.nbit; width <= free {
		w.cur = w.cur<<width | v
		w.nbit += width
		if w.nbit == 64 {
			w.flushWord()
		}
		return
	}
	// Split across the word boundary: top part fills cur, rest seeds it.
	take := 64 - w.nbit
	w.cur = w.cur<<take | v>>(width-take)
	w.nbit = 64
	w.flushWord()
	rem := width - take
	w.cur = v & (1<<rem - 1)
	w.nbit = rem
}

// WriteBit appends a single bit (0 or 1).
func (w *Writer) WriteBit(b uint) {
	w.WriteBits(uint64(b&1), 1)
}

func (w *Writer) flushWord() {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], w.cur)
	w.buf = append(w.buf, b[:]...)
	w.cur = 0
	w.nbit = 0
}

// BitLen reports the total number of bits written so far.
func (w *Writer) BitLen() int {
	return len(w.buf)*8 + int(w.nbit)
}

// Bytes finalizes the stream, padding the final partial byte with zero bits,
// and returns the underlying buffer. The Writer may continue to be used; the
// padding bits become part of the stream.
func (w *Writer) Bytes() []byte {
	if w.nbit > 0 {
		pad := (8 - w.nbit%8) % 8
		if pad > 0 {
			w.cur <<= pad
			w.nbit += pad
		}
		for w.nbit > 0 {
			w.buf = append(w.buf, byte(w.cur>>(w.nbit-8)))
			w.nbit -= 8
		}
		w.cur = 0
	}
	return w.buf
}

// Reset clears the writer for reuse, retaining the allocated buffer.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.cur = 0
	w.nbit = 0
}

// Reader consumes bits MSB-first from a byte slice.
//
// Internally it maintains a left-aligned 64-bit accumulator: the next
// unread bit is always the accumulator's MSB, and only the top nacc bits
// are meaningful (the rest are zero). refill loads eight source bytes per
// iteration whenever at least eight bits of accumulator space are free.
type Reader struct {
	buf  []byte
	pos  int    // next source byte to load into acc
	acc  uint64 // unread bits, left-aligned; bits below nacc are zero
	nacc uint   // number of valid bits in acc (0..64)
}

// NewReader returns a Reader over buf. The Reader does not copy buf.
func NewReader(buf []byte) *Reader {
	return &Reader{buf: buf}
}

// Reset re-points the Reader at buf, reusing the struct.
func (r *Reader) Reset(buf []byte) {
	r.buf = buf
	r.pos = 0
	r.acc = 0
	r.nacc = 0
}

// refill tops the accumulator up from the source buffer: a single 64-bit
// load when eight bytes remain, byte-at-a-time near the end of the stream.
func (r *Reader) refill() {
	if r.nacc <= 0 && r.pos+8 <= len(r.buf) {
		// Empty accumulator and a full word available: one load.
		r.acc = binary.BigEndian.Uint64(r.buf[r.pos:])
		r.nacc = 64
		r.pos += 8
		return
	}
	for r.nacc <= 56 && r.pos < len(r.buf) {
		r.acc |= uint64(r.buf[r.pos]) << (56 - r.nacc)
		r.nacc += 8
		r.pos++
	}
}

// Peek returns the next width bits (MSB-first, right-aligned) without
// consuming them. Past the end of the stream the missing low bits are
// zero-padded — callers detect truncation via Skip/ReadBits, which do fail.
// width must be in [0, 56] to guarantee a full window after one refill.
func (r *Reader) Peek(width uint) uint64 {
	if width == 0 {
		return 0
	}
	if r.nacc < width {
		r.refill()
	}
	return r.acc >> (64 - width)
}

// Skip consumes width bits, which must have been peeked or otherwise known
// to exist: skipping past the end of the stream returns ErrUnexpectedEOF
// (with the reader drained).
func (r *Reader) Skip(width uint) error {
	if width <= r.nacc {
		r.acc <<= width
		r.nacc -= width
		return nil
	}
	for width > r.nacc {
		if r.pos >= len(r.buf) {
			r.acc = 0
			r.nacc = 0
			return ErrUnexpectedEOF
		}
		r.refill()
		if width <= r.nacc {
			break
		}
		// Accumulator full (or source drained) and still short: consume it
		// wholesale and keep going.
		width -= r.nacc
		r.acc = 0
		r.nacc = 0
	}
	r.acc <<= width
	r.nacc -= width
	return nil
}

// ReadBits reads `width` bits (MSB-first) and returns them right-aligned.
// width must be in [0, 64].
func (r *Reader) ReadBits(width uint) (uint64, error) {
	if width > 64 {
		return 0, fmt.Errorf("bitstream: width %d out of range", width)
	}
	if width <= r.nacc {
		// Fast path: entirely inside the accumulator.
		v := r.acc >> (64 - width)
		r.acc <<= width
		r.nacc -= width
		return v, nil
	}
	var v uint64
	for width > 0 {
		if r.nacc == 0 {
			r.refill()
			if r.nacc == 0 {
				return 0, ErrUnexpectedEOF
			}
		}
		take := width
		if take > r.nacc {
			take = r.nacc
		}
		v = v<<take | r.acc>>(64-take)
		r.acc <<= take
		r.nacc -= take
		width -= take
	}
	return v, nil
}

// ReadBit reads a single bit.
func (r *Reader) ReadBit() (uint, error) {
	if r.nacc == 0 {
		r.refill()
		if r.nacc == 0 {
			return 0, ErrUnexpectedEOF
		}
	}
	b := uint(r.acc >> 63)
	r.acc <<= 1
	r.nacc--
	return b, nil
}

// Remaining reports the number of unread bits.
func (r *Reader) Remaining() int {
	return (len(r.buf)-r.pos)*8 + int(r.nacc)
}

// Align advances the reader to the next byte boundary of the original
// stream (consumed-bit count becomes a multiple of 8).
func (r *Reader) Align() {
	// Consumed bits = pos*8 - nacc, so the misalignment is nacc mod 8.
	if k := r.nacc % 8; k > 0 {
		r.acc <<= k
		r.nacc -= k
	}
}
