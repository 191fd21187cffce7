package clarinet

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/colblob"
	"repro/internal/noiseerr"
)

// JournalCodec is the serialization behind the batch journal and the
// noised result wire: one encoding of a JournalRecord stream. Two
// codecs exist — the compact binary default (colblob frames) and JSONL
// as a human-readable debug view (-journal-format=jsonl). Both
// round-trip float64 bit-exactly, so a resumed report renders
// byte-identically regardless of codec.
type JournalCodec interface {
	// Name is the codec's flag/config name ("binary", "jsonl").
	Name() string
	// ContentType is the codec's HTTP media type on the noised wire.
	ContentType() string
	// NewWriter starts an encoded record stream on w. Writers are
	// single-stream and not concurrency-safe (Journal adds the mutex);
	// the binary writer carries cross-record compression state, so one
	// writer must serve one stream from its beginning (or be primed by
	// replaying the stream's existing records — OpenJournal does).
	NewWriter(w io.Writer) RecordWriter
	// NewReader decodes a stream written with NewWriter.
	NewReader(r io.Reader) RecordReader
}

// RecordWriter appends records to one encoded stream.
type RecordWriter interface {
	WriteRecord(rec JournalRecord) error
}

// RecordReader iterates a journal/wire stream. Next returns io.EOF at a
// clean end, ErrBadRecord for a record that should be skipped (a
// malformed JSONL line), and colblob.ErrTorn for the truncated tail a
// killed binary writer leaves behind (the reader is exhausted after it —
// binary records chain on their predecessors, so nothing after a broken
// frame can decode).
type RecordReader interface {
	Next() (JournalRecord, error)
}

// ErrBadRecord marks one undecodable record in an otherwise readable
// stream; readers skip it and continue.
var ErrBadRecord = errors.New("clarinet: bad journal record")

// Wire content types for the analyze stream.
const (
	ContentTypeNDJSON  = "application/x-ndjson"
	ContentTypeColblob = "application/x-noise-colblob"
)

// The two codecs. Binary is the journal default; JSONL is the debug
// view and the legacy wire format.
var (
	Binary JournalCodec = binaryCodec{}
	JSONL  JournalCodec = jsonlCodec{}
)

// CodecByName resolves a -journal-format flag value. Empty means the
// binary default.
func CodecByName(name string) (JournalCodec, error) {
	switch name {
	case "", "binary":
		return Binary, nil
	case "jsonl", "json":
		return JSONL, nil
	default:
		return nil, noiseerr.Invalidf("clarinet: unknown journal format %q (want binary or jsonl)", name)
	}
}

// SniffCodec identifies the codec of an existing stream from its first
// byte: binary frames open with colblob.FrameMagic (0xCB, outside
// ASCII), JSONL lines with '{'.
func SniffCodec(first byte) JournalCodec {
	if first == colblob.FrameMagic {
		return Binary
	}
	return JSONL
}

// --- JSONL ------------------------------------------------------------

type jsonlCodec struct{}

func (jsonlCodec) Name() string        { return "jsonl" }
func (jsonlCodec) ContentType() string { return ContentTypeNDJSON }

func (jsonlCodec) NewWriter(w io.Writer) RecordWriter { return &jsonlWriter{w: w} }

type jsonlWriter struct {
	w   io.Writer
	buf []byte
}

func (jw *jsonlWriter) WriteRecord(rec JournalRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	jw.buf = append(jw.buf[:0], line...)
	jw.buf = append(jw.buf, '\n')
	_, err = jw.w.Write(jw.buf)
	return err
}

func (jsonlCodec) NewReader(r io.Reader) RecordReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20) // grows from bufio's default as lines need
	return &jsonlReader{sc: sc}
}

type jsonlReader struct{ sc *bufio.Scanner }

func (jr *jsonlReader) Next() (JournalRecord, error) {
	for jr.sc.Scan() {
		line := jr.sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec JournalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			// A malformed line — including the torn final line of a
			// killed run — is skippable, not fatal.
			return JournalRecord{}, ErrBadRecord
		}
		return rec, nil
	}
	if err := jr.sc.Err(); err != nil {
		return JournalRecord{}, err
	}
	return JournalRecord{}, io.EOF
}

// --- binary -----------------------------------------------------------
//
// One record is one colblob frame (magic, kind, length, payload,
// checksum — see colblob/frame.go). The payload chains on the records
// before it in the same stream, spending bytes only where a record
// carries information its predecessors did not:
//
//	uvarint  shared-prefix length with the previous record's net name
//	string   net name suffix
//	byte     flags — the whole header of the common case:
//	           bits 0-1  quality ("", exact, rescued; 3 = extended,
//	                     an enum byte follows: index into qualityEnum,
//	                     0xFF = escape + uvarint-length string)
//	           bit 2     class present (enum byte follows, classEnum)
//	           bit 3     error message present (string follows)
//	           bit 4     result present
//	           bits 5-7  iterations (7 = escape, uvarint follows)
//	if a result is present, one LSB-first bit stream:
//	  for each float field except noisyCombinedDelay:
//	    4-bit zigzag delta of the sign+exponent word (top 12 bits of the
//	    IEEE-754 pattern) against the same field of the previous
//	    result-bearing record; delta 15 escapes to a raw 12-bit word
//	    52-bit raw mantissa
//	  noisyCombinedDelay: 1 bit "equals quiet+delayNoise exactly"
//	    (the definitionally common case); 0 escapes to 64 raw bits
//
// Mantissas are full-precision solver output — incompressible 52-bit
// entropy — so the format packs them bare and compresses everything
// around them: exponents repeat per field across nets (~1 nibble),
// names share batch prefixes, and enum strings collapse to a byte.
// Everything decodes bit-exactly.
//
// The chaining means a binary stream must be read strictly from the
// start, and a writer appending to an existing stream must first replay
// it to recover the compression state (OpenJournal does both).

const (
	enumEscape = 0xFF
	// noisyField is the index of NoisyCombinedDelay in resultFields.
	noisyField = 7

	// flags-byte layout.
	flagQualityExt = 3 // bits 0-1: inline quality; 3 = enum byte follows
	flagClass      = 1 << 2
	flagError      = 1 << 3
	flagResult     = 1 << 4
	flagItersShift = 5
	flagItersEsc   = 7 // bits 5-7: inline iterations; 7 = uvarint follows
)

// qualityEnum and classEnum pin the closed vocabularies the binary
// codec compresses to one byte. Appending is format-compatible;
// reordering or removing is not (TestBinaryEnumsPinned guards).
var (
	qualityEnum = []string{"", "exact", "rescued", "fallback"}
	classEnum   = []string{"", "invalid-case", "convergence", "numerical",
		"canceled", "deadline", "internal", "unclassified"}
)

// resultFields flattens a JournalResult's floats in wire order.
func resultFields(res *JournalResult) [10]float64 {
	return [10]float64{
		res.VictimCeff, res.VictimRth, res.VictimRtr,
		res.PulseHeight, res.PulseWidth, res.TPeak,
		res.QuietCombinedDelay, res.NoisyCombinedDelay,
		res.DelayNoise, res.InterconnectDelayNoise,
	}
}

func setResultFields(res *JournalResult, f [10]float64) {
	res.VictimCeff, res.VictimRth, res.VictimRtr = f[0], f[1], f[2]
	res.PulseHeight, res.PulseWidth, res.TPeak = f[3], f[4], f[5]
	res.QuietCombinedDelay, res.NoisyCombinedDelay = f[6], f[7]
	res.DelayNoise, res.InterconnectDelayNoise = f[8], f[9]
}

// binState is the cross-record compression state an encoder and its
// decoder evolve in lockstep: the previous record's net name (every
// record) and the per-field sign+exponent words of the previous
// result-bearing record.
type binState struct {
	prevName string
	prevExp  [10]uint16
}

// BinaryRecordEncoder encodes one binary record stream's payloads (the
// journal and wire writers wrap it in frames). Not concurrency-safe.
type BinaryRecordEncoder struct{ st binState }

// Append appends rec's payload (unframed) to dst.
func (e *BinaryRecordEncoder) Append(dst []byte, rec JournalRecord) []byte {
	prefix := sharedPrefix(e.st.prevName, rec.Net)
	dst = colblob.AppendUvarint(dst, uint64(prefix))
	dst = colblob.AppendString(dst, rec.Net[prefix:])
	e.st.prevName = rec.Net

	var flags byte
	qInline := enumIndex(qualityEnum[:flagQualityExt], rec.Quality)
	if qInline >= 0 {
		flags = byte(qInline)
	} else {
		flags = flagQualityExt
	}
	if rec.Class != "" {
		flags |= flagClass
	}
	if rec.Error != "" {
		flags |= flagError
	}
	itEsc := false
	if rec.Result != nil {
		flags |= flagResult
		if it := rec.Result.Iterations; it >= 0 && it < int(flagItersEsc) {
			flags |= byte(it) << flagItersShift
		} else {
			flags |= flagItersEsc << flagItersShift
			itEsc = true
		}
	}
	dst = append(dst, flags)
	if qInline < 0 {
		dst = appendEnum(dst, qualityEnum, rec.Quality)
	}
	if rec.Class != "" {
		dst = appendEnum(dst, classEnum, rec.Class)
	}
	if rec.Error != "" {
		dst = colblob.AppendString(dst, rec.Error)
	}
	if rec.Result == nil {
		return dst
	}
	res := rec.Result
	if itEsc {
		dst = colblob.AppendUvarint(dst, uint64(int64(res.Iterations)))
	}
	fields := resultFields(res)
	bw := colblob.NewBitWriter(dst)
	for i, v := range fields {
		bits := math.Float64bits(v)
		if i == noisyField {
			if bits == math.Float64bits(res.QuietCombinedDelay+res.DelayNoise) {
				bw.WriteBits(1, 1)
			} else {
				bw.WriteBits(0, 1)
				bw.WriteBits(bits, 64)
			}
			continue
		}
		exp := uint16(bits >> 52)
		d := int64(exp) - int64(e.st.prevExp[i])
		e.st.prevExp[i] = exp
		if z := zigzag16(d); z < 15 {
			bw.WriteBits(uint64(z), 4)
		} else {
			bw.WriteBits(15, 4)
			bw.WriteBits(uint64(exp), 12)
		}
		bw.WriteBits(bits&((1<<52)-1), 52)
	}
	return bw.Bytes()
}

// BinaryRecordDecoder decodes payloads produced by a
// BinaryRecordEncoder, replaying its state transitions. A decode error
// leaves the state unusable: the stream cannot be resynchronized past
// it (callers stop, as ReadJournal does).
type BinaryRecordDecoder struct{ st binState }

// Decode parses one payload.
func (d *BinaryRecordDecoder) Decode(payload []byte) (JournalRecord, error) {
	var rec JournalRecord
	prefix, src, err := colblob.ReadUvarint(payload)
	if err != nil || prefix > uint64(len(d.st.prevName)) {
		return rec, errBadPayload
	}
	suffix, src, err := colblob.ReadString(src)
	if err != nil {
		return rec, errBadPayload
	}
	rec.Net = d.st.prevName[:prefix] + suffix
	d.st.prevName = rec.Net
	if len(src) < 1 {
		return rec, errBadPayload
	}
	flags := src[0]
	src = src[1:]
	if q := flags & flagQualityExt; q < flagQualityExt {
		rec.Quality = qualityEnum[q]
	} else if rec.Quality, src, err = readEnum(src, qualityEnum); err != nil {
		return rec, err
	}
	if flags&flagClass != 0 {
		if rec.Class, src, err = readEnum(src, classEnum); err != nil {
			return rec, err
		}
	}
	if flags&flagError != 0 {
		if rec.Error, src, err = colblob.ReadString(src); err != nil {
			return rec, errBadPayload
		}
	}
	if flags&flagResult == 0 {
		if len(src) != 0 {
			return rec, errBadPayload
		}
		return rec, nil
	}
	res := &JournalResult{}
	res.Iterations = int(flags >> flagItersShift)
	if res.Iterations == flagItersEsc {
		iters, rest, err := colblob.ReadUvarint(src)
		if err != nil {
			return rec, errBadPayload
		}
		res.Iterations, src = int(int64(iters)), rest
	}
	var fields [10]float64
	exactSum := false
	br := colblob.NewBitReader(src)
	for i := range fields {
		if i == noisyField {
			exact, err := br.ReadBits(1)
			if err != nil {
				return rec, errBadPayload
			}
			if exact == 1 {
				// Reconstructed after the loop, once quiet and noise
				// are both decoded.
				exactSum = true
				continue
			}
			raw, err := br.ReadBits(64)
			if err != nil {
				return rec, errBadPayload
			}
			fields[i] = math.Float64frombits(raw)
			continue
		}
		z, err := br.ReadBits(4)
		if err != nil {
			return rec, errBadPayload
		}
		var exp uint16
		if z == 15 {
			raw, err := br.ReadBits(12)
			if err != nil {
				return rec, errBadPayload
			}
			exp = uint16(raw)
		} else {
			exp = uint16(int64(d.st.prevExp[i]) + unzigzag16(uint16(z)))
		}
		d.st.prevExp[i] = exp
		man, err := br.ReadBits(52)
		if err != nil {
			return rec, errBadPayload
		}
		fields[i] = math.Float64frombits(uint64(exp)<<52 | man)
	}
	if exactSum {
		// fields[6] is QuietCombinedDelay, fields[8] DelayNoise: both
		// decoded by now, so the flagged identity reconstructs bit-exactly.
		fields[noisyField] = fields[6] + fields[8]
	}
	setResultFields(res, fields)
	rec.Result = res
	return rec, nil
}

var errBadPayload = fmt.Errorf("%w: binary record payload", colblob.ErrTorn)

// sharedPrefix is the byte length of the common prefix of a and b.
func sharedPrefix(a, b string) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// enumIndex returns s's index in vocab, or -1 for a value outside it.
func enumIndex(vocab []string, s string) int {
	for i, v := range vocab {
		if v == s {
			return i
		}
	}
	return -1
}

// appendEnum writes s as its index in vocab, or the escape byte and the
// literal string for values outside the vocabulary.
func appendEnum(dst []byte, vocab []string, s string) []byte {
	if i := enumIndex(vocab, s); i >= 0 {
		return append(dst, byte(i))
	}
	dst = append(dst, enumEscape)
	return colblob.AppendString(dst, s)
}

func readEnum(src []byte, vocab []string) (string, []byte, error) {
	if len(src) < 1 {
		return "", src, errBadPayload
	}
	b := src[0]
	src = src[1:]
	if b == enumEscape {
		s, rest, err := colblob.ReadString(src)
		if err != nil {
			return "", src, errBadPayload
		}
		return s, rest, nil
	}
	if int(b) >= len(vocab) {
		return "", src, errBadPayload
	}
	return vocab[b], src, nil
}

func zigzag16(v int64) uint16   { return uint16((v << 1) ^ (v >> 63)) }
func unzigzag16(u uint16) int64 { return int64(u>>1) ^ -int64(u&1) }

type binaryCodec struct{}

func (binaryCodec) Name() string        { return "binary" }
func (binaryCodec) ContentType() string { return ContentTypeColblob }

func (binaryCodec) NewWriter(w io.Writer) RecordWriter { return &binaryWriter{w: w} }

type binaryWriter struct {
	w       io.Writer
	enc     BinaryRecordEncoder
	payload []byte
	frame   []byte
}

func (bw *binaryWriter) WriteRecord(rec JournalRecord) error {
	bw.payload = bw.enc.Append(bw.payload[:0], rec)
	bw.frame = colblob.AppendFrame(bw.frame[:0], colblob.FrameRecord, bw.payload)
	_, err := bw.w.Write(bw.frame)
	return err
}

func (binaryCodec) NewReader(r io.Reader) RecordReader {
	return &binaryReader{fr: colblob.NewFrameReader(r)}
}

type binaryReader struct {
	fr  *colblob.FrameReader
	dec BinaryRecordDecoder
}

func (br *binaryReader) Next() (JournalRecord, error) {
	for {
		kind, payload, err := br.fr.Next()
		if err != nil {
			return JournalRecord{}, err
		}
		if kind != colblob.FrameRecord {
			continue // unknown/summary frames extend the stream compatibly
		}
		rec, err := br.dec.Decode(payload)
		if err != nil {
			// The frame checksum passed but the payload does not parse.
			// Records chain, so nothing after this point can decode:
			// terminal, like a torn tail.
			return JournalRecord{}, err
		}
		return rec, nil
	}
}
