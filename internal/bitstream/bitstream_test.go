package bitstream

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadSingleBits(t *testing.T) {
	w := NewWriter(16)
	bits := []uint{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1}
	for _, b := range bits {
		w.WriteBit(b)
	}
	r := NewReader(w.Bytes())
	for i, want := range bits {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatalf("bit %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("bit %d: got %d want %d", i, got, want)
		}
	}
}

func TestWriteBitsWidths(t *testing.T) {
	tests := []struct {
		name   string
		values []uint64
		widths []uint
	}{
		{"bytes", []uint64{0xAB, 0xCD, 0x12}, []uint{8, 8, 8}},
		{"mixed", []uint64{0x3, 0x1F, 0x0, 0xFFFF}, []uint{2, 5, 1, 16}},
		{"wide", []uint64{0xDEADBEEFCAFEF00D, 0x1}, []uint{64, 1}},
		{"cross-boundary", []uint64{0x1FF, 0x7F, 0x3FFFF}, []uint{9, 7, 18}},
		{"zero-width", []uint64{0x0, 0xFF}, []uint{0, 8}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			w := NewWriter(64)
			for i, v := range tt.values {
				w.WriteBits(v, tt.widths[i])
			}
			r := NewReader(w.Bytes())
			for i, want := range tt.values {
				got, err := r.ReadBits(tt.widths[i])
				if err != nil {
					t.Fatalf("value %d: %v", i, err)
				}
				mask := uint64(0)
				if tt.widths[i] == 64 {
					mask = ^uint64(0)
				} else {
					mask = (1 << tt.widths[i]) - 1
				}
				if got != want&mask {
					t.Fatalf("value %d: got %#x want %#x", i, got, want&mask)
				}
			}
		})
	}
}

func TestBitLen(t *testing.T) {
	w := NewWriter(8)
	if w.BitLen() != 0 {
		t.Fatalf("empty writer BitLen = %d", w.BitLen())
	}
	w.WriteBits(0x5, 3)
	if w.BitLen() != 3 {
		t.Fatalf("BitLen after 3 bits = %d", w.BitLen())
	}
	w.WriteBits(0xFFFF, 16)
	if w.BitLen() != 19 {
		t.Fatalf("BitLen after 19 bits = %d", w.BitLen())
	}
}

func TestReaderEOF(t *testing.T) {
	r := NewReader([]byte{0xFF})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatalf("first byte: %v", err)
	}
	if _, err := r.ReadBits(1); err != ErrUnexpectedEOF {
		t.Fatalf("want ErrUnexpectedEOF, got %v", err)
	}
}

func TestReaderWidthTooLarge(t *testing.T) {
	r := NewReader(make([]byte, 16))
	if _, err := r.ReadBits(65); err == nil {
		t.Fatal("want error for width 65")
	}
}

func TestAlign(t *testing.T) {
	w := NewWriter(8)
	w.WriteBits(0x5, 3)
	w.WriteBits(0xAB, 8)
	data := w.Bytes()
	r := NewReader(data)
	if _, err := r.ReadBits(3); err != nil {
		t.Fatal(err)
	}
	r.Align()
	if r.Remaining()%8 != 0 {
		t.Fatalf("after Align remaining bits %d not byte aligned", r.Remaining())
	}
}

func TestReset(t *testing.T) {
	w := NewWriter(8)
	w.WriteBits(0xFF, 8)
	w.Reset()
	if w.BitLen() != 0 {
		t.Fatalf("BitLen after Reset = %d", w.BitLen())
	}
	w.WriteBits(0x2, 2)
	got := w.Bytes()
	if len(got) != 1 || got[0] != 0x80 {
		t.Fatalf("after reset bytes = %#v", got)
	}
}

// TestRoundTripQuick verifies that arbitrary (value, width) sequences
// round-trip exactly.
func TestRoundTripQuick(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%64) + 1
		values := make([]uint64, count)
		widths := make([]uint, count)
		for i := range values {
			widths[i] = uint(rng.Intn(64) + 1)
			values[i] = rng.Uint64() & ((1 << widths[i]) - 1)
			if widths[i] == 64 {
				values[i] = rng.Uint64()
			}
		}
		w := NewWriter(count * 8)
		for i, v := range values {
			w.WriteBits(v, widths[i])
		}
		r := NewReader(w.Bytes())
		for i, want := range values {
			got, err := r.ReadBits(widths[i])
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWriteBits(b *testing.B) {
	w := NewWriter(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%100000 == 0 {
			w.Reset()
		}
		w.WriteBits(uint64(i), 17)
	}
}

func BenchmarkReadBits(b *testing.B) {
	w := NewWriter(1 << 20)
	for i := 0; i < 1<<17; i++ {
		w.WriteBits(uint64(i), 17)
	}
	data := w.Bytes()
	b.ResetTimer()
	b.ReportAllocs()
	r := NewReader(data)
	for i := 0; i < b.N; i++ {
		if r.Remaining() < 17 {
			r = NewReader(data)
		}
		if _, err := r.ReadBits(17); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPeekSkipMatchesReadBits drives the same random stream through the
// peek-then-skip word-at-a-time API and through plain ReadBits; both must
// observe identical bit sequences.
func TestPeekSkipMatchesReadBits(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	w := NewWriter(1 << 12)
	var widths []uint
	var values []uint64
	for i := 0; i < 500; i++ {
		wd := uint(rng.Intn(56) + 1)
		v := rng.Uint64() & ((1 << wd) - 1)
		widths = append(widths, wd)
		values = append(values, v)
		w.WriteBits(v, wd)
	}
	data := w.Bytes()
	r := NewReader(data)
	for i, wd := range widths {
		got := r.Peek(wd)
		if got != values[i] {
			t.Fatalf("peek %d: got %#x want %#x", i, got, values[i])
		}
		// A second peek must be idempotent.
		if again := r.Peek(wd); again != got {
			t.Fatalf("peek %d not idempotent: %#x then %#x", i, got, again)
		}
		if err := r.Skip(wd); err != nil {
			t.Fatalf("skip %d: %v", i, err)
		}
	}
}

// TestPeekPastEndZeroPads: peeking beyond the stream must zero-pad, and the
// matching Skip must fail with ErrUnexpectedEOF.
func TestPeekPastEndZeroPads(t *testing.T) {
	r := NewReader([]byte{0xFF})
	if got := r.Peek(12); got != 0xFF0 {
		t.Fatalf("peek(12) over 1 byte = %#x, want 0xFF0", got)
	}
	if err := r.Skip(12); err != ErrUnexpectedEOF {
		t.Fatalf("skip past end: got %v, want ErrUnexpectedEOF", err)
	}
}

// TestSkipWideAcrossWords skips widths larger than the accumulator.
func TestSkipWideAcrossWords(t *testing.T) {
	data := make([]byte, 32)
	for i := range data {
		data[i] = byte(i * 37)
	}
	r := NewReader(data)
	if err := r.Skip(200); err != nil {
		t.Fatal(err)
	}
	want := NewReader(data)
	if _, err := want.ReadBits(64); err != nil {
		t.Fatal(err)
	}
	if _, err := want.ReadBits(64); err != nil {
		t.Fatal(err)
	}
	if _, err := want.ReadBits(64); err != nil {
		t.Fatal(err)
	}
	if _, err := want.ReadBits(8); err != nil {
		t.Fatal(err)
	}
	g, err := r.ReadBits(16)
	if err != nil {
		t.Fatal(err)
	}
	w, err := want.ReadBits(16)
	if err != nil {
		t.Fatal(err)
	}
	if g != w {
		t.Fatalf("after Skip(200): got %#x want %#x", g, w)
	}
	if r.Remaining() != want.Remaining() {
		t.Fatalf("remaining %d vs %d", r.Remaining(), want.Remaining())
	}
}

// TestReaderReset reuses one Reader across buffers.
func TestReaderReset(t *testing.T) {
	r := NewReader([]byte{0xAB})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal(err)
	}
	r.Reset([]byte{0xCD, 0xEF})
	v, err := r.ReadBits(16)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xCDEF {
		t.Fatalf("after Reset: %#x", v)
	}
}

// TestAlignAfterPeek: Align must account for accumulator-held bits.
func TestAlignAfterPeek(t *testing.T) {
	data := []byte{0b10110100, 0b01011111, 0xA5}
	r := NewReader(data)
	_ = r.Peek(3) // pulls a word into the accumulator
	if _, err := r.ReadBits(3); err != nil {
		t.Fatal(err)
	}
	r.Align()
	v, err := r.ReadBits(8)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0b01011111 {
		t.Fatalf("after align: %#x want %#x", v, 0b01011111)
	}
	if r.Remaining() != 8 {
		t.Fatalf("remaining = %d want 8", r.Remaining())
	}
}

func BenchmarkPeekSkip(b *testing.B) {
	w := NewWriter(1 << 20)
	for i := 0; i < 1<<17; i++ {
		w.WriteBits(uint64(i), 17)
	}
	data := w.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	r := NewReader(data)
	for i := 0; i < b.N; i++ {
		r.Reset(data)
		for r.Remaining() >= 17 {
			_ = r.Peek(12)
			if err := r.Skip(17); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestAppendPackedMatchesWriter: AppendPacked must emit exactly the bytes
// a fresh Writer produces for the same fixed-width WriteBits sequence, for
// every width, run length and word alignment, and leave dst's prefix
// intact.
func TestAppendPackedMatchesWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prefix := []byte{0xAB, 0xCD}
	for width := uint(0); width <= 64; width++ {
		for _, n := range []int{0, 1, 2, 3, 7, 8, 63, 64, 65, 256, 301} {
			vs := make([]uint64, n)
			for i := range vs {
				vs[i] = rng.Uint64() // high bits beyond width must be masked
			}
			w := NewWriter(0)
			for _, v := range vs {
				w.WriteBits(v, width)
			}
			want := append(append([]byte(nil), prefix...), w.Bytes()...)
			got := AppendPacked(append([]byte(nil), prefix...), vs, width)
			if !bytes.Equal(got, want) {
				t.Fatalf("width %d, %d values: AppendPacked differs from Writer", width, n)
			}
		}
	}
}
