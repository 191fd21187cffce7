package colblob

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"testing"
)

// floatCases covers every encoding's sweet spot plus the bit patterns
// that break naive float arithmetic codecs.
var floatCases = map[string][]float64{
	"empty":       {},
	"single":      {3.25e-12},
	"uniformGrid": grid(0, 1e-12, 512),         // delta2: ~1 byte/sample
	"repeats":     {5, 5, 5, 5, 5, 5, 5, 5, 5}, // xor: 1 byte/sample
	"monotone":    {1, 2, 3, 5, 8, 13, 21, 34}, // delta
	"mixedSigns":  {-1.5, 2.25, -3.75, 0, 4.5}, // raw-ish
	"specials":    {math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, math.MaxFloat64, math.SmallestNonzeroFloat64},
	"wave": func() []float64 {
		v := make([]float64, 300)
		for i := range v {
			v[i] = 0.9 * math.Exp(-float64(i)/60) * math.Sin(float64(i)/9)
		}
		return v
	}(),
}

func grid(t0, dt float64, n int) []float64 {
	g := make([]float64, n)
	for i := range g {
		g[i] = t0 + float64(i)*dt
	}
	return g
}

// equalBits compares float slices bit-exactly (NaN == NaN).
func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestFloatColumnRoundTrip(t *testing.T) {
	for name, vals := range floatCases {
		t.Run(name, func(t *testing.T) {
			enc := AppendFloats(nil, vals)
			got, rest, err := ReadFloats(enc)
			if err != nil {
				t.Fatal(err)
			}
			if len(rest) != 0 {
				t.Fatalf("%d unconsumed bytes", len(rest))
			}
			if !equalBits(vals, got) {
				t.Fatalf("round trip mismatch:\n in  %v\n out %v", vals, got)
			}
		})
	}
}

// TestFloatColumnEveryEncodingRoundTrips forces each encoding onto each
// case, so the non-winning decoders stay correct too.
func TestFloatColumnEveryEncodingRoundTrips(t *testing.T) {
	for name, vals := range floatCases {
		for enc := colRaw; enc <= colDelta2; enc++ {
			buf := forceEncode(enc, vals)
			got, rest, err := ReadFloats(buf)
			if err != nil {
				t.Fatalf("%s enc %d: %v", name, enc, err)
			}
			if len(rest) != 0 || !equalBits(vals, got) {
				t.Fatalf("%s enc %d: round trip mismatch", name, enc)
			}
		}
	}
}

// forceEncode re-runs the column writer with a pinned encoding.
func forceEncode(enc byte, vals []float64) []byte {
	dst := []byte{enc}
	dst = AppendUvarint(dst, uint64(len(vals)))
	var prevBits, prevDelta uint64
	for _, v := range vals {
		bits := math.Float64bits(v)
		switch enc {
		case colRaw:
			dst = binary.LittleEndian.AppendUint64(dst, bits)
		case colXOR:
			dst = AppendUvarint(dst, bits^prevBits)
		case colDelta:
			dst = AppendUvarint(dst, zigzag(int64(bits-prevBits)))
		case colDelta2:
			delta := bits - prevBits
			dst = AppendUvarint(dst, zigzag(int64(delta-prevDelta)))
			prevDelta = delta
		}
		prevBits = bits
	}
	return dst
}

func TestFloatColumnCompression(t *testing.T) {
	vals := grid(0, 2e-12, 1000)
	enc := AppendFloats(nil, vals)
	if raw := 8 * len(vals); len(enc)*4 > raw {
		t.Fatalf("uniform grid encoded to %d bytes; want < 1/4 of raw %d", len(enc), raw)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf []byte
	payloads := [][]byte{[]byte("alpha"), {}, bytes.Repeat([]byte{0xCB}, 300)}
	for i, p := range payloads {
		buf = AppendFrame(buf, byte(i+1), p)
	}
	fr := NewFrameReader(bytes.NewReader(buf))
	for i, p := range payloads {
		kind, got, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if kind != byte(i+1) || !bytes.Equal(got, p) {
			t.Fatalf("frame %d: kind %d payload %q", i, kind, got)
		}
	}
	if _, _, err := fr.Next(); err != io.EOF {
		t.Fatalf("want io.EOF at end, got %v", err)
	}
}

// TestFrameTornTail truncates a two-frame stream at every length: the
// first frame must always decode intact, and the damaged remainder must
// come back as ErrTorn or EOF — never as a record.
func TestFrameTornTail(t *testing.T) {
	var buf []byte
	buf = AppendFrame(buf, FrameRecord, []byte("complete-record"))
	whole := len(buf)
	buf = AppendFrame(buf, FrameRecord, []byte("torn-record"))
	for cut := whole; cut < len(buf); cut++ {
		fr := NewFrameReader(bytes.NewReader(buf[:cut]))
		kind, payload, err := fr.Next()
		if err != nil || kind != FrameRecord || string(payload) != "complete-record" {
			t.Fatalf("cut %d: first frame broke: %v", cut, err)
		}
		_, _, err = fr.Next()
		if cut == whole {
			if err != io.EOF {
				t.Fatalf("cut %d: want EOF, got %v", cut, err)
			}
			continue
		}
		if err != ErrTorn && !Corrupt(err) {
			t.Fatalf("cut %d: want torn, got %v", cut, err)
		}
	}
}

// TestFrameCorruptPayload flips one payload byte: the checksum must
// catch it.
func TestFrameCorruptPayload(t *testing.T) {
	buf := AppendFrame(nil, FrameRecord, []byte("payload-bytes"))
	buf[5] ^= 0x40
	if _, _, err := NewFrameReader(bytes.NewReader(buf)).Next(); err != ErrTorn {
		t.Fatalf("want ErrTorn on corrupt payload, got %v", err)
	}
}

func TestIDStableAndConsistent(t *testing.T) {
	// The id function names warm-store entries on disk: pin a known
	// vector so it can never drift silently.
	const want = uint64(0xc927c7c9db4d8b2b)
	if got := ID([]byte("clarinet")); got != want {
		t.Fatalf("ID(clarinet) = %#x, want %#x (format-breaking change!)", got, want)
	}
}
