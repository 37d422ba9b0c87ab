package lossless

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, data []byte, b Backend) {
	t.Helper()
	enc, err := Compress(data, b)
	if err != nil {
		t.Fatalf("%v compress: %v", b, err)
	}
	dec, err := Decompress(enc)
	if err != nil {
		t.Fatalf("%v decompress: %v", b, err)
	}
	if !bytes.Equal(dec, data) {
		t.Fatalf("%v round trip mismatch: %d in, %d out", b, len(data), len(dec))
	}
}

func TestRoundTripAllBackends(t *testing.T) {
	inputs := map[string][]byte{
		"empty":    {},
		"single":   {0x42},
		"repeated": bytes.Repeat([]byte{0xAA}, 1000),
		"ascending": func() []byte {
			b := make([]byte, 300)
			for i := range b {
				b[i] = byte(i)
			}
			return b
		}(),
		"textlike": bytes.Repeat([]byte("the quick brown fox "), 64),
		"periodic": bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7}, 500),
	}
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, 4096)
	rng.Read(random)
	inputs["random"] = random
	// A constant 1 MiB run deflates near 1000:1, close to the decoder's
	// size-claim guard: a legitimate stream must still pass it.
	inputs["zeros-1MiB"] = make([]byte, 1<<20)
	field := make([]byte, 8*2048)
	for i := 0; i < 2048; i++ {
		binary.LittleEndian.PutUint64(field[8*i:], math.Float64bits(math.Sin(float64(i)/64)))
	}
	inputs["float64-field"] = field

	for name, data := range inputs {
		for _, b := range []Backend{None, Deflate} {
			t.Run(name+"/"+b.String(), func(t *testing.T) {
				roundTrip(t, data, b)
			})
		}
	}
}

func TestCompressesRepetitiveData(t *testing.T) {
	data := bytes.Repeat([]byte("scientific data transfer "), 1000)
	enc, err := Compress(data, Deflate)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) >= len(data)/2 {
		t.Errorf("weak compression: %d -> %d", len(data), len(enc))
	}
}

func TestRandomDataFallsBackToNone(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	data := make([]byte, 8192)
	rng.Read(data)
	enc, err := Compress(data, Deflate)
	if err != nil {
		t.Fatal(err)
	}
	if Backend(enc[0]) != None {
		t.Errorf("want fallback to None for incompressible data, got %v", Backend(enc[0]))
	}
	if len(enc) > len(data)+9 {
		t.Errorf("expansion beyond header: %d -> %d", len(data), len(enc))
	}
}

func TestDecompressCorrupt(t *testing.T) {
	cases := [][]byte{
		nil,
		{1},
		{99, 0, 0, 0, 0, 0, 0, 0, 0}, // unknown backend
		{byte(None), 10, 0, 0, 0, 0, 0, 0, 0, 1, 2},   // size mismatch
		{3, 10, 0, 0, 0, 0, 0, 0, 0},                  // unknown backend tag 3
		{byte(Deflate), 4, 0, 0, 0, 0, 0, 0, 0, 0xFF}, // invalid deflate
	}
	for i, c := range cases {
		if _, err := Decompress(c); !errors.Is(err, ErrCorrupt) {
			t.Errorf("case %d: err = %v, want ErrCorrupt", i, err)
		}
	}
}

func TestUnknownBackendCompress(t *testing.T) {
	if _, err := Compress([]byte{1}, Backend(200)); err == nil {
		t.Fatal("want error for unknown backend")
	}
}

func TestBackendString(t *testing.T) {
	if None.String() != "none" || Deflate.String() != "deflate" {
		t.Fatal("bad String values")
	}
	if Backend(42).String() == "" {
		t.Fatal("unknown backend String empty")
	}
}

func TestRoundTripQuick(t *testing.T) {
	for _, b := range []Backend{None, Deflate} {
		t.Run(b.String(), func(t *testing.T) {
			f := func(seed int64, n uint16) bool {
				rng := rand.New(rand.NewSource(seed))
				// Mix of random and repeated segments.
				data := make([]byte, 0, int(n))
				for len(data) < int(n) {
					seg := rng.Intn(int(n)-len(data)) + 1
					if rng.Float64() < 0.5 {
						chunk := make([]byte, seg)
						rng.Read(chunk)
						data = append(data, chunk...)
						continue
					}
					unit := make([]byte, rng.Intn(7)+1)
					rng.Read(unit)
					for i := 0; i < seg; i++ {
						data = append(data, unit[i%len(unit)])
					}
				}
				enc, err := Compress(data, b)
				if err != nil {
					return false
				}
				dec, err := Decompress(enc)
				return err == nil && bytes.Equal(dec, data)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// A size prefix past 4096× the body is more than deflate could inflate
// to, so it is rejected before the decoder allocates for it.
func TestDecompressRejectsOversizedClaim(t *testing.T) {
	const claim = 64 << 20
	stream := make([]byte, 9+16)
	stream[0] = byte(Deflate)
	binary.LittleEndian.PutUint64(stream[1:9], claim)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decompress(stream)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= claim/2 {
		t.Fatalf("allocated %d bytes for a %d-byte stream", grew, len(stream))
	}
}

func BenchmarkDeflate(b *testing.B) {
	data := bytes.Repeat([]byte("ocelot transfer pipeline "), 4096)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compress(data, Deflate); err != nil {
			b.Fatal(err)
		}
	}
}
