// Package colblob is the byte layer under the binary journals, the
// application/x-noise-colblob variant of the noised result stream, and
// the warm store: lossless float64 columns (delta- and XOR-encoded
// IEEE-754 bit patterns), bit streams for sub-byte fields, and a
// length-prefixed, checksummed frame codec, plus the varint and string
// primitives the record codecs compose.
//
// Design constraints, in order:
//
//  1. Lossless. Every float64 round-trips bit-exactly; the encodings
//     below operate on IEEE-754 bit patterns with integer arithmetic
//     only, so a decoded journal renders byte-identically to the JSONL
//     it replaces.
//  2. Torn-tail tolerant. A killed writer leaves at most one truncated
//     frame; readers detect it (length + checksum) and stop cleanly,
//     mirroring the JSONL journal's torn-line semantics.
//  3. Dependency-free. The module vendors nothing; the hash is a
//     seedless 64-bit FNV-1a (content ids and frame checksums, not
//     cryptography).
//
// Uniformly sampled waveform time axes collapse to about a byte per
// sample under the delta-of-delta column encoding, a small fraction of
// raw float64 columns.
package colblob

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Errors shared by the decoders. ErrTorn specifically marks a truncated
// or checksum-corrupt tail — the state a killed writer leaves behind —
// which journal readers treat as a clean end of stream.
var (
	ErrTorn    = errors.New("colblob: torn frame")
	errCorrupt = errors.New("colblob: corrupt blob")
)

// Corrupt reports whether err marks undecodable colblob input (torn
// tails included).
func Corrupt(err error) bool {
	return errors.Is(err, errCorrupt) || errors.Is(err, ErrTorn)
}

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// ID returns the 64-bit content id of a byte string: seedless FNV-1a
// over the raw bytes. Ids name warm-store entries; equal inputs always
// hash equally across processes and versions, so an id computed today
// finds an entry written by any future build.
func ID(name []byte) uint64 {
	h := fnvOffset
	for _, b := range name {
		h = (h ^ uint64(b)) * fnvPrime
	}
	return h
}

// checksum32 is the frame integrity check: the low 32 bits of
// FNV-1a over the payload. Catches torn writes and bit rot, not
// adversaries.
func checksum32(data []byte) uint32 {
	h := fnvOffset
	for _, b := range data {
		h = (h ^ uint64(b)) * fnvPrime
	}
	return uint32(h)
}

// --- primitive appenders/readers -------------------------------------
//
// All multi-byte integers are little-endian; counts and lengths are
// unsigned varints. Readers take and return the unconsumed remainder so
// section decoders compose without an offset cursor.

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// ReadUvarint consumes one unsigned varint.
func ReadUvarint(src []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(src)
	if n <= 0 {
		return 0, src, errCorrupt
	}
	return v, src[n:], nil
}

// ReadU64 consumes a fixed 8-byte little-endian word.
func ReadU64(src []byte) (uint64, []byte, error) {
	if len(src) < 8 {
		return 0, src, errCorrupt
	}
	return binary.LittleEndian.Uint64(src), src[8:], nil
}

// AppendString appends a length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// ReadString consumes a length-prefixed string. The returned string is
// a copy; use ReadStringBytes for a zero-copy view.
func ReadString(src []byte) (string, []byte, error) {
	b, rest, err := ReadStringBytes(src)
	return string(b), rest, err
}

// ReadStringBytes consumes a length-prefixed string as a subslice of
// src (no copy).
func ReadStringBytes(src []byte) ([]byte, []byte, error) {
	n, rest, err := ReadUvarint(src)
	if err != nil || n > uint64(len(rest)) {
		return nil, src, errCorrupt
	}
	return rest[:n:n], rest[n:], nil
}

// zigzag maps a signed delta onto an unsigned varint-friendly value
// (small magnitudes of either sign encode short).
func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// uvarintLen reports how many bytes AppendUvarint would use for v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// corruptf wraps errCorrupt with context so decoder failures name the
// section that broke.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCorrupt, fmt.Sprintf(format, args...))
}
