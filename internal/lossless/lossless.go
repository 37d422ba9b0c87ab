// Package lossless provides the byte-level lossless backend applied after
// entropy coding in the SZ-style pipeline (SZ3 uses zstd; we provide DEFLATE
// from the standard library, or no compression). Every stream is prefixed
// with a one-byte backend tag plus the uncompressed length so decompression
// is self-describing.
package lossless

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Backend selects the lossless algorithm.
type Backend uint8

const (
	// None stores bytes verbatim (useful for already-dense streams).
	None Backend = iota + 1
	// Deflate uses compress/flate at the default level.
	Deflate
)

// String implements fmt.Stringer.
func (b Backend) String() string {
	switch b {
	case None:
		return "none"
	case Deflate:
		return "deflate"
	default:
		return fmt.Sprintf("backend(%d)", uint8(b))
	}
}

// ErrCorrupt indicates a malformed compressed stream.
var ErrCorrupt = errors.New("lossless: corrupt stream")

// Compress encodes data with the requested backend. If the backend expands
// the data it transparently falls back to None.
func Compress(data []byte, backend Backend) ([]byte, error) {
	var body []byte
	var err error
	var release func()
	switch backend {
	case None:
		body = data
	case Deflate:
		body, release, err = deflateCompress(data)
	default:
		return nil, fmt.Errorf("lossless: unknown backend %d", backend)
	}
	if err != nil {
		return nil, err
	}
	if backend != None && len(body) >= len(data) {
		backend, body = None, data
	}
	out := make([]byte, 0, len(body)+9)
	out = append(out, byte(backend))
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(data)))
	out = append(out, n[:]...)
	out = append(out, body...)
	// body has been copied into out; a pooled deflate buffer can go back.
	if release != nil {
		release()
	}
	return out, nil
}

// ReferenceCompress is Compress with the pre-pooling deflate path (a
// fresh flate.Writer per call). It exists solely as the benchmark baseline
// the hot-path overhaul is measured against; output bytes are identical to
// Compress's.
func ReferenceCompress(data []byte, backend Backend) ([]byte, error) {
	if backend != Deflate {
		return Compress(data, backend)
	}
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.DefaultCompression)
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(data); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	body := buf.Bytes()
	if len(body) >= len(data) {
		backend, body = None, data
	}
	out := make([]byte, 0, len(body)+9)
	out = append(out, byte(backend))
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(data)))
	out = append(out, n[:]...)
	out = append(out, body...)
	return out, nil
}

// ReferenceDecompress is Decompress with the pre-pooling inflate path (a
// fresh flate.Reader per call); the benchmark baseline counterpart of
// ReferenceCompress.
func ReferenceDecompress(stream []byte) ([]byte, error) {
	if len(stream) < 9 || Backend(stream[0]) != Deflate {
		return Decompress(stream)
	}
	size := binary.LittleEndian.Uint64(stream[1:9])
	body := stream[9:]
	if size > 1<<40 || size > 4096*uint64(len(body))+64 {
		return nil, ErrCorrupt
	}
	r := flate.NewReader(bytes.NewReader(body))
	defer r.Close()
	out := make([]byte, size)
	if _, err := io.ReadFull(r, out); err != nil {
		return nil, fmt.Errorf("lossless: inflate: %w", ErrCorrupt)
	}
	return out, nil
}

// Decompress decodes a stream produced by Compress.
func Decompress(stream []byte) ([]byte, error) {
	if len(stream) < 9 {
		return nil, ErrCorrupt
	}
	backend := Backend(stream[0])
	size := binary.LittleEndian.Uint64(stream[1:9])
	if size > 1<<40 {
		return nil, ErrCorrupt
	}
	body := stream[9:]
	// The size prefix is attacker-controlled until the body actually
	// inflates. Deflate tops out near 1032:1, so a claimed size beyond
	// 4096× the body is a lie — reject it before allocating (a crafted
	// 50-byte stream must not demand terabytes).
	if size > 4096*uint64(len(body))+64 {
		return nil, ErrCorrupt
	}
	switch backend {
	case None:
		if uint64(len(body)) != size {
			return nil, ErrCorrupt
		}
		out := make([]byte, size)
		copy(out, body)
		return out, nil
	case Deflate:
		return deflateDecompress(body, int(size))
	default:
		return nil, fmt.Errorf("lossless: unknown backend %d: %w", backend, ErrCorrupt)
	}
}

// Flate keeps large internal state (hash chains on the write side, a
// sliding window on the read side) that the standard constructors allocate
// per call; pooling the coders — and the output buffer, whose bytes
// Compress copies into the framed stream before releasing — removes that
// cost from the compression hot path. flate output is deterministic for a
// given input and level, and Reset restores the initial coder state, so
// pooled coders emit byte-identical streams.
var (
	deflateWriterPool sync.Pool
	deflateReaderPool sync.Pool
	deflateBufPool    = sync.Pool{New: func() interface{} { return new(bytes.Buffer) }}
)

// deflateCompress returns the compressed body plus a release function that
// recycles the backing buffer; the caller must copy the body out before
// calling release.
func deflateCompress(data []byte) ([]byte, func(), error) {
	buf := deflateBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	release := func() { deflateBufPool.Put(buf) }
	w, _ := deflateWriterPool.Get().(*flate.Writer)
	if w == nil {
		var err error
		w, err = flate.NewWriter(buf, flate.DefaultCompression)
		if err != nil {
			release()
			return nil, nil, err
		}
	} else {
		w.Reset(buf)
	}
	defer deflateWriterPool.Put(w)
	if _, err := w.Write(data); err != nil {
		release()
		return nil, nil, err
	}
	if err := w.Close(); err != nil {
		release()
		return nil, nil, err
	}
	return buf.Bytes(), release, nil
}

func deflateDecompress(body []byte, size int) ([]byte, error) {
	br := bytes.NewReader(body)
	r, _ := deflateReaderPool.Get().(io.ReadCloser)
	if r == nil {
		r = flate.NewReader(br)
	} else if err := r.(flate.Resetter).Reset(br, nil); err != nil {
		// The reader is still reusable — Reset with a nil dictionary only
		// fails on the source, and the next user Resets again anyway.
		deflateReaderPool.Put(r)
		return nil, err
	}
	defer deflateReaderPool.Put(r)
	out := make([]byte, size)
	if _, err := io.ReadFull(r, out); err != nil {
		return nil, fmt.Errorf("lossless: inflate: %w", ErrCorrupt)
	}
	return out, nil
}
