package colblob

import (
	"bytes"
	"io"
	"math"
	"testing"
)

// Fuzz targets. Each asserts two invariants: (1) decoders never panic
// or over-allocate on hostile bytes, and (2) anything that decodes
// cleanly re-encodes and decodes to the same values (round-trip
// stability). CI runs these with -fuzz for a short budget on every
// push; the seed corpus under testdata/fuzz is committed.

func FuzzReadFloats(f *testing.F) {
	for _, vals := range floatCases {
		f.Add(AppendFloats(nil, vals))
	}
	f.Add([]byte{colDelta2, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		vals, rest, err := ReadFloats(data)
		if err != nil {
			return
		}
		enc := AppendFloats(nil, vals)
		got, rest2, err := ReadFloats(enc)
		if err != nil || len(rest2) != 0 {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !equalBits(vals, got) {
			t.Fatalf("re-encode changed values")
		}
		_ = rest
	})
}

func FuzzFrameReader(f *testing.F) {
	var stream []byte
	stream = AppendFrame(stream, FrameRecord, []byte("seed-record"))
	stream = AppendFrame(stream, FrameSummary, []byte(`{"analyzed":1}`))
	f.Add(stream)
	f.Add(stream[:len(stream)-5])
	f.Add([]byte{FrameMagic, FrameRecord, 0x05, 'a', 'b'})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data))
		var frames [][]byte
		var kinds []byte
		for {
			kind, payload, err := fr.Next()
			if err != nil {
				if err != io.EOF && err != ErrTorn && !Corrupt(err) {
					t.Fatalf("unexpected error class: %v", err)
				}
				break
			}
			frames = append(frames, bytes.Clone(payload))
			kinds = append(kinds, kind)
		}
		// Whatever decoded must survive a re-framed round trip.
		var re []byte
		for i, p := range frames {
			re = AppendFrame(re, kinds[i], p)
		}
		fr2 := NewFrameReader(bytes.NewReader(re))
		for i := range frames {
			kind, payload, err := fr2.Next()
			if err != nil || kind != kinds[i] || !bytes.Equal(payload, frames[i]) {
				t.Fatalf("re-framed frame %d mismatch: %v", i, err)
			}
		}
	})
}

// FuzzFloatValues drives the encoder (not the decoder) with arbitrary
// float bit patterns, checking bit-exact round trips including NaN
// payloads, infinities, and denormals.
func FuzzFloatValues(f *testing.F) {
	f.Add(uint64(0), uint64(1), uint64(math.Float64bits(math.NaN())))
	f.Add(math.Float64bits(1.5), math.Float64bits(-1.5), math.Float64bits(math.Inf(1)))
	f.Fuzz(func(t *testing.T, a, b, c uint64) {
		vals := []float64{
			math.Float64frombits(a), math.Float64frombits(b),
			math.Float64frombits(c), math.Float64frombits(a ^ c),
		}
		got, rest, err := ReadFloats(AppendFloats(nil, vals))
		if err != nil || len(rest) != 0 || !equalBits(vals, got) {
			t.Fatalf("round trip failed: %v", err)
		}
	})
}
