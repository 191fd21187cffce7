package colblob

import (
	"bufio"
	"encoding/binary"
	"io"
)

// Streaming frame codec. A frame is one self-delimiting, checksummed
// unit of a binary stream — one journal record, one wire record, one
// terminal summary:
//
//	[magic 0xCB] [kind] [uvarint payload length] [payload] [checksum u32]
//
// The magic byte distinguishes a binary journal from a JSONL one on the
// first byte of the file (JSONL lines start with '{'), the length makes
// frames skippable, and the checksum turns the half-written frame a
// killed process leaves behind into a detectable ErrTorn instead of
// garbage records.

// FrameMagic opens every frame. 0xCB ("ColBlob") is outside ASCII, so
// no JSONL journal can start with it.
const FrameMagic byte = 0xCB

// Frame kinds used by the journal and wire codecs. Decoders skip kinds
// they do not know, so new kinds extend the stream compatibly.
const (
	// FrameRecord carries one encoded journal/wire record.
	FrameRecord byte = 0x01
	// FrameSummary carries the terminal stream summary (JSON payload —
	// it occurs once per stream, so compactness does not matter and the
	// summary schema stays shared with the NDJSON wire).
	FrameSummary byte = 0x02
	// FrameHeartbeat is an empty keepalive frame the serving layer
	// interleaves into an idle wire stream so clients (and the gateway's
	// stall detector) can tell a slow net from a dead replica. Decoders
	// that predate it skip it like any unknown kind.
	FrameHeartbeat byte = 0x03
	// FramePathStage carries one path-mode stage record (see
	// internal/pathnoise): scalar fields plus the stage's receiver-output
	// waveform series as float columns. Self-contained — path journals do
	// not chain cross-record state, so a reader can survive any single
	// bad frame.
	FramePathStage byte = 0x04
)

// maxFramePayload bounds a single frame. Records are ~100 bytes; a
// length beyond this is corruption, not data, and refusing it keeps a
// corrupt length byte from forcing a giant allocation.
const maxFramePayload = 1 << 26 // 64 MiB

// AppendFrame appends one framed payload to dst.
func AppendFrame(dst []byte, kind byte, payload []byte) []byte {
	dst = append(dst, FrameMagic, kind)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, checksum32(payload))
}

// FrameReader decodes a stream of frames, reusing one payload buffer
// across frames. The payload returned by Next is valid until the
// following Next call.
type FrameReader struct {
	r   *bufio.Reader
	buf []byte
}

// NewFrameReader wraps r. An existing *bufio.Reader is used as-is;
// otherwise the read-ahead is bufio's default, since a payload is read
// into the reader's own buffer, not the read-ahead, and most streams
// (one request's records, one request's journal) are short.
func NewFrameReader(r io.Reader) *FrameReader {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	return &FrameReader{r: br}
}

// Next returns the next frame. A clean end of stream returns io.EOF; a
// truncated or checksum-corrupt tail returns ErrTorn (wrapped with
// detail). After either, the reader is exhausted.
func (fr *FrameReader) Next() (kind byte, payload []byte, err error) {
	magic, err := fr.r.ReadByte()
	if err == io.EOF {
		return 0, nil, io.EOF
	}
	if err != nil {
		return 0, nil, err
	}
	if magic != FrameMagic {
		return 0, nil, corruptf("frame: bad magic 0x%02x", magic)
	}
	kind, err = fr.r.ReadByte()
	if err != nil {
		return 0, nil, torn(err)
	}
	n, err := binary.ReadUvarint(fr.r)
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, nil, ErrTorn
		}
		// An overflowing varint is corruption, not truncation.
		return 0, nil, corruptf("frame: length: %v", err)
	}
	if n > maxFramePayload {
		return 0, nil, corruptf("frame: %d-byte payload", n)
	}
	if cap(fr.buf) < int(n) {
		fr.buf = make([]byte, n)
	}
	payload = fr.buf[:n]
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return 0, nil, torn(err)
	}
	var sum [4]byte
	if _, err := io.ReadFull(fr.r, sum[:]); err != nil {
		return 0, nil, torn(err)
	}
	if binary.LittleEndian.Uint32(sum[:]) != checksum32(payload) {
		return 0, nil, ErrTorn
	}
	return kind, payload, nil
}

// Buffered reports how many read-ahead bytes sit in the reader's
// buffer, unconsumed by frames — callers tracking the byte offset of
// the last intact frame (torn-tail truncation) subtract it from the
// bytes they have fed in.
func (fr *FrameReader) Buffered() int { return fr.r.Buffered() }

// torn maps the io errors of a truncated read onto ErrTorn; anything
// else passes through.
func torn(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return ErrTorn
	}
	return err
}
