package clarinet

import (
	"fmt"
	"io"
	"os"

	"repro/internal/colblob"
)

// RepairTornTail fixes the torn tail a killed writer leaves on the
// journal file at path, in the file's own format, and reports the
// file's first byte, which names that format (ok is false for a missing
// or empty file: no format committed yet). A JSONL file ending mid-line
// gets a newline so appended records start fresh. A binary file with a
// truncated or corrupt tail is truncated back to the end of its last
// valid frame: frames are not line-oriented, so the JSONL trick of
// writing a separator cannot resynchronize a binary stream. check, when
// non-nil, vets each whole frame in file order — a chained decoder
// replays its state through it — and the first frame it rejects ends
// the valid prefix too. Self-contained frames (path stage journals)
// pass nil.
func RepairTornTail(path string, check func(kind byte, payload []byte) error) (first byte, ok bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, false, nil
		}
		return 0, false, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil || fi.Size() == 0 {
		return 0, false, err
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], 0); err != nil {
		return 0, false, err
	}
	first = b[0]
	if first != colblob.FrameMagic {
		if _, err := f.ReadAt(b[:], fi.Size()-1); err != nil || b[0] == '\n' {
			return first, true, err
		}
		af, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return first, true, err
		}
		defer af.Close()
		_, err = af.WriteString("\n")
		return first, true, err
	}
	cr := &countingReader{r: f}
	fr := colblob.NewFrameReader(cr)
	var end int64
	for {
		kind, payload, err := fr.Next()
		if err != nil || (check != nil && check(kind, payload) != nil) {
			break
		}
		// The frame is valid; NewFrameReader buffers ahead, so the
		// consumed offset is the reader position minus what is still
		// buffered.
		end = cr.n - int64(fr.Buffered())
	}
	if end < fi.Size() {
		return first, true, os.Truncate(path, end)
	}
	return first, true, nil
}

// countingReader counts bytes handed to the frame reader's buffer.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// OpenJournal opens (creating if absent) the journal at path for
// appending, repairing any torn final record a killed run left behind.
// codec selects the encoding for a new journal (nil means the binary
// default); an existing non-empty journal keeps its own sniffed format
// regardless, so resume runs never interleave encodings in one file.
// The caller must invoke close when done with the journal.
func OpenJournal(path string, codec JournalCodec) (j *Journal, close func() error, err error) {
	if codec == nil {
		codec = Binary
	}
	// Binary records chain on their predecessors: replay the file's
	// compression state, which a writer appending to it resumes from. A
	// frame whose checksum passes but whose payload does not decode ends
	// the valid prefix, since nothing past it can be appended to
	// coherently.
	var dec BinaryRecordDecoder
	var st binState
	first, ok, err := RepairTornTail(path, func(kind byte, payload []byte) error {
		if kind == colblob.FrameRecord {
			if _, err := dec.Decode(payload); err != nil {
				return err // dec may be half-mutated; st holds the last good state
			}
		}
		st = dec.st
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("clarinet: repair torn journal %s: %w", path, err)
	}
	if ok {
		codec = SniffCodec(first)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("clarinet: open journal: %w", err)
	}
	if codec.Name() == "binary" {
		// Appended binary records chain on the file's existing tail:
		// resume the encoder from the replayed compression state.
		rw := &binaryWriter{w: f, enc: BinaryRecordEncoder{st: st}}
		return &Journal{rw: rw}, f.Close, nil
	}
	return NewJournalWith(f, codec), f.Close, nil
}

// ReadJournalFile loads the journal at path (either codec, sniffed) as
// prior reports for a resumed batch. A missing file is not an error: it
// returns an empty map, the natural state of a first run.
func ReadJournalFile(path string) (map[string]NetReport, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return map[string]NetReport{}, nil
		}
		return nil, fmt.Errorf("clarinet: open resume journal: %w", err)
	}
	defer f.Close()
	return ReadJournal(f)
}
