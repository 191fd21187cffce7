package colblob

import (
	"encoding/binary"
	"math"
)

// Float64 column encodings. A column is a header byte naming the
// encoding, a uvarint count, and the per-value payload. Every encoding
// operates on IEEE-754 bit patterns with integer arithmetic only, so
// decoding is bit-exact for every input, NaN payloads and negative
// zeros included. The encoder sizes all four candidates and keeps the
// smallest:
//
//	colRaw    fixed 8-byte words — the fallback, never beaten by more
//	          than the varint overhead on incompressible data.
//	colXOR    uvarint of bits[i] XOR bits[i-1] — strong when consecutive
//	          values share sign/exponent/high-mantissa bits and differ
//	          only in low bits (slowly varying series, repeated values
//	          collapse to one byte).
//	colDelta  zigzag varint of bits[i] - bits[i-1] as integers — strong
//	          for monotone series, because IEEE-754 orders same-sign
//	          floats by bit pattern (adjacent floats are adjacent
//	          integers).
//	colDelta2 zigzag varint of the second difference of the bit
//	          patterns — uniformly sampled waveform time axes (and any
//	          arithmetic-progression-like series) collapse to ~1 byte
//	          per sample.
const (
	colRaw byte = iota
	colXOR
	colDelta
	colDelta2
)

// AppendFloats appends vals as an encoded column, choosing the
// smallest of the candidate encodings.
func AppendFloats(dst []byte, vals []float64) []byte {
	enc := chooseFloatEncoding(vals)
	dst = append(dst, enc)
	dst = binary.AppendUvarint(dst, uint64(len(vals)))
	var prevBits, prevDelta uint64
	for _, v := range vals {
		bits := math.Float64bits(v)
		switch enc {
		case colRaw:
			dst = binary.LittleEndian.AppendUint64(dst, bits)
		case colXOR:
			dst = binary.AppendUvarint(dst, bits^prevBits)
		case colDelta:
			dst = binary.AppendUvarint(dst, zigzag(int64(bits-prevBits)))
		case colDelta2:
			delta := bits - prevBits
			dst = binary.AppendUvarint(dst, zigzag(int64(delta-prevDelta)))
			prevDelta = delta
		}
		prevBits = bits
	}
	return dst
}

// chooseFloatEncoding sizes every candidate and returns the cheapest,
// preferring the simpler encoding on ties (raw < xor < delta < delta2).
func chooseFloatEncoding(vals []float64) byte {
	sizes := [4]int{8 * len(vals), 0, 0, 0}
	var prevBits, prevDelta uint64
	for _, v := range vals {
		bits := math.Float64bits(v)
		sizes[colXOR] += uvarintLen(bits ^ prevBits)
		delta := bits - prevBits
		sizes[colDelta] += uvarintLen(zigzag(int64(delta)))
		sizes[colDelta2] += uvarintLen(zigzag(int64(delta - prevDelta)))
		prevDelta = delta
		prevBits = bits
	}
	best := colRaw
	for enc := colXOR; enc <= colDelta2; enc++ {
		if sizes[enc] < sizes[best] {
			best = enc
		}
	}
	return best
}

// ReadFloats consumes one encoded column, returning the decoded values
// and the unconsumed remainder.
func ReadFloats(src []byte) ([]float64, []byte, error) {
	if len(src) < 1 {
		return nil, src, corruptf("float column: missing header")
	}
	enc := src[0]
	if enc > colDelta2 {
		return nil, src, corruptf("float column: unknown encoding %d", enc)
	}
	n, rest, err := ReadUvarint(src[1:])
	if err != nil {
		return nil, src, corruptf("float column: count")
	}
	// A value costs at least one byte in every varint encoding and 8 in
	// raw, so the count itself bounds-checks against the remainder and a
	// hostile count cannot force a huge allocation.
	min := n
	if enc == colRaw {
		min = 8 * n
	}
	if min > uint64(len(rest)) {
		return nil, src, corruptf("float column: %d values in %d bytes", n, len(rest))
	}
	var dst []float64 // nil for an empty column, as decoders expect
	if n > 0 {
		dst = make([]float64, 0, n)
	}
	var prevBits, prevDelta uint64
	for i := uint64(0); i < n; i++ {
		var bits uint64
		switch enc {
		case colRaw:
			bits, rest, err = ReadU64(rest)
		case colXOR:
			var x uint64
			x, rest, err = ReadUvarint(rest)
			bits = x ^ prevBits
		case colDelta:
			var z uint64
			z, rest, err = ReadUvarint(rest)
			bits = prevBits + uint64(unzigzag(z))
		case colDelta2:
			var z uint64
			z, rest, err = ReadUvarint(rest)
			prevDelta += uint64(unzigzag(z))
			bits = prevBits + prevDelta
		}
		if err != nil {
			return nil, src, corruptf("float column: value %d", i)
		}
		prevBits = bits
		dst = append(dst, math.Float64frombits(bits))
	}
	return dst, rest, nil
}
