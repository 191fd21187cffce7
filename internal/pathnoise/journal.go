package pathnoise

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/clarinet"
	"repro/internal/colblob"
	"repro/internal/noiseerr"
)

// Path journals checkpoint a path run at stage granularity: one record
// per (path, stage, fixpoint iteration), carrying both the scalar
// outcome and the stage's receiver-output waveform series. The
// waveforms are what make stage-granular resume possible — a resumed
// run rebuilds the handoff into the next stage from the journal instead
// of re-simulating the stages it already has — so both codecs store
// them losslessly (colblob float columns / JSON shortest-round-trip
// float64). Binary records are self-contained frames (kind
// colblob.FramePathStage, no cross-record chaining): waveform payloads
// dominate the size, so prefix compression would buy little, and
// self-containment lets a reader skip any single bad frame.

// StageKey identifies one journal record: a stage of a path at one
// window-fixpoint iteration.
type StageKey struct {
	Path  string
	Stage int
	Iter  int
}

// StageResult is the scalar outcome of one successful stage execution.
// All times are seconds; "local" means the stage's own simulation frame
// and "arrival" means path-absolute (local + the chain's frame shift).
type StageResult struct {
	InSlewQuiet float64 `json:"inSlewQuiet"` // derived victim slew, quiet chain
	InSlewNoisy float64 `json:"inSlewNoisy"` // derived victim slew, noisy chain
	QuietShift  float64 `json:"quietShift"`  // local->absolute, quiet chain
	NoisyShift  float64 `json:"noisyShift"`  // local->absolute, noisy chain
	QuietCross  float64 `json:"quietCross"`  // receiver-output 50%, local, quiet chain
	NoisyCross  float64 `json:"noisyCross"`  // receiver-output 50%, local, noisy chain
	QuietArr    float64 `json:"quietArr"`    // path-absolute quiet arrival at stage output
	NoisyArr    float64 `json:"noisyArr"`    // path-absolute noisy arrival at stage output
	StageQuiet  float64 `json:"stageQuiet"`  // stage combined delay, quiet chain
	StageNoise  float64 `json:"stageNoise"`  // per-stage worst-case delay noise (pessimism ref)
	TPeak       float64 `json:"tPeak"`       // chosen aggressor alignment, local frame
	Incremental float64 `json:"incremental"` // cumulative noise added by this stage
	Cumulative  float64 `json:"cumulative"`  // NoisyArr - QuietArr
	Iterations  int     `json:"iterations"`  // delaynoise fixpoint iterations of the noisy run
}

// nStageFloats is the scalar wire width of a StageResult.
const nStageFloats = 13

func (r *StageResult) fields() [nStageFloats]float64 {
	return [nStageFloats]float64{
		r.InSlewQuiet, r.InSlewNoisy, r.QuietShift, r.NoisyShift,
		r.QuietCross, r.NoisyCross, r.QuietArr, r.NoisyArr,
		r.StageQuiet, r.StageNoise, r.TPeak, r.Incremental, r.Cumulative,
	}
}

func (r *StageResult) setFields(f [nStageFloats]float64) {
	r.InSlewQuiet, r.InSlewNoisy, r.QuietShift, r.NoisyShift = f[0], f[1], f[2], f[3]
	r.QuietCross, r.NoisyCross, r.QuietArr, r.NoisyArr = f[4], f[5], f[6], f[7]
	r.StageQuiet, r.StageNoise, r.TPeak, r.Incremental, r.Cumulative = f[8], f[9], f[10], f[11], f[12]
}

// StageRecord is one journal record and one wire record of the
// analyze-path stream: the outcome of one stage execution, success or
// failure, plus the stage's receiver-output waveform series (quiet and
// noisy chains, local frame) when it succeeded.
type StageRecord struct {
	Path  string `json:"path"`
	Stage int    `json:"stage"`
	Iter  int    `json:"iter"`
	Net   string `json:"net"`
	// Final marks the last stage of the path; Done marks the record
	// that completes the path's analysis (final stage of the last
	// fixpoint iteration, or a terminal failure at any stage). The
	// gateway's exactly-once path merge finalizes on Done.
	Final bool `json:"final,omitempty"`
	Done  bool `json:"done,omitempty"`

	Quality string       `json:"quality,omitempty"`
	Class   string       `json:"class,omitempty"`
	Error   string       `json:"error,omitempty"`
	Result  *StageResult `json:"result,omitempty"`

	// Receiver-output waveform series, stage-local frame.
	QuietOutT []float64 `json:"quietOutT,omitempty"`
	QuietOutV []float64 `json:"quietOutV,omitempty"`
	NoisyOutT []float64 `json:"noisyOutT,omitempty"`
	NoisyOutV []float64 `json:"noisyOutV,omitempty"`
}

// Key returns the record's journal identity.
func (r *StageRecord) Key() StageKey { return StageKey{Path: r.Path, Stage: r.Stage, Iter: r.Iter} }

// StageCodec encodes a stage-record stream; the two implementations
// mirror the clarinet journal codecs (binary default, JSONL debug) and
// share their wire content types.
type StageCodec interface {
	Name() string
	ContentType() string
	NewWriter(w io.Writer) StageWriter
	NewReader(r io.Reader) StageReader
}

// StageWriter appends records to one encoded stream. Writers are not
// concurrency-safe; PathJournal adds the mutex.
type StageWriter interface {
	WriteStage(rec StageRecord) error
}

// StageReader iterates a stage-record stream: io.EOF at a clean end,
// ErrBadStage for one skippable bad record, a colblob.Corrupt error at
// the torn tail a killed binary writer leaves.
type StageReader interface {
	Next() (StageRecord, error)
}

// ErrBadStage marks one undecodable record in an otherwise readable
// stream; readers skip it and continue.
var ErrBadStage = errors.New("pathnoise: bad stage record")

// The two codecs.
var (
	BinaryStages StageCodec = binaryStageCodec{}
	JSONLStages  StageCodec = jsonlStageCodec{}
)

// StageCodecByName resolves a journal-format flag value; empty selects
// the binary default.
func StageCodecByName(name string) (StageCodec, error) {
	switch name {
	case "", "binary":
		return BinaryStages, nil
	case "jsonl", "json":
		return JSONLStages, nil
	default:
		return nil, noiseerr.Invalidf("pathnoise: unknown journal format %q (want binary or jsonl)", name)
	}
}

// SniffStageCodec identifies a stream's codec from its first byte.
func SniffStageCodec(first byte) StageCodec {
	if first == colblob.FrameMagic {
		return BinaryStages
	}
	return JSONLStages
}

// --- JSONL ------------------------------------------------------------

type jsonlStageCodec struct{}

func (jsonlStageCodec) Name() string        { return "jsonl" }
func (jsonlStageCodec) ContentType() string { return clarinet.ContentTypeNDJSON }

func (jsonlStageCodec) NewWriter(w io.Writer) StageWriter { return &jsonlStageWriter{w: w} }

type jsonlStageWriter struct {
	w   io.Writer
	buf []byte
}

func (jw *jsonlStageWriter) WriteStage(rec StageRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	jw.buf = append(jw.buf[:0], line...)
	jw.buf = append(jw.buf, '\n')
	_, err = jw.w.Write(jw.buf)
	return err
}

func (jsonlStageCodec) NewReader(r io.Reader) StageReader {
	sc := bufio.NewScanner(r)
	// Waveform series inflate JSONL records well past the clarinet
	// journal's line sizes.
	sc.Buffer(make([]byte, 0, 256*1024), 16<<20)
	return &jsonlStageReader{sc: sc}
}

type jsonlStageReader struct{ sc *bufio.Scanner }

func (jr *jsonlStageReader) Next() (StageRecord, error) {
	for jr.sc.Scan() {
		line := jr.sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec StageRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return StageRecord{}, ErrBadStage
		}
		return rec, nil
	}
	if err := jr.sc.Err(); err != nil {
		return StageRecord{}, err
	}
	return StageRecord{}, io.EOF
}

// --- binary -----------------------------------------------------------

// Flag bits of the binary stage payload.
const (
	stageFinal   = 1 << 0
	stageDone    = 1 << 1
	stageQuality = 1 << 2
	stageClass   = 1 << 3
	stageError   = 1 << 4
	stageResult  = 1 << 5
	stageWaves   = 1 << 6
)

// appendStagePayload encodes one record, unframed. The payload is
// self-contained: no state is shared across records.
func appendStagePayload(dst []byte, rec StageRecord) []byte {
	dst = colblob.AppendString(dst, rec.Path)
	dst = colblob.AppendUvarint(dst, uint64(rec.Stage))
	dst = colblob.AppendUvarint(dst, uint64(rec.Iter))
	dst = colblob.AppendString(dst, rec.Net)
	var flags byte
	if rec.Final {
		flags |= stageFinal
	}
	if rec.Done {
		flags |= stageDone
	}
	if rec.Quality != "" {
		flags |= stageQuality
	}
	if rec.Class != "" {
		flags |= stageClass
	}
	if rec.Error != "" {
		flags |= stageError
	}
	if rec.Result != nil {
		flags |= stageResult
	}
	if rec.QuietOutT != nil || rec.NoisyOutT != nil {
		flags |= stageWaves
	}
	dst = append(dst, flags)
	if rec.Quality != "" {
		dst = colblob.AppendString(dst, rec.Quality)
	}
	if rec.Class != "" {
		dst = colblob.AppendString(dst, rec.Class)
	}
	if rec.Error != "" {
		dst = colblob.AppendString(dst, rec.Error)
	}
	if rec.Result != nil {
		dst = colblob.AppendUvarint(dst, uint64(rec.Result.Iterations))
		f := rec.Result.fields()
		dst = colblob.AppendFloats(dst, f[:])
	}
	if flags&stageWaves != 0 {
		for _, col := range [][]float64{rec.QuietOutT, rec.QuietOutV, rec.NoisyOutT, rec.NoisyOutV} {
			dst = colblob.AppendFloats(dst, col)
		}
	}
	return dst
}

// decodeStagePayload parses one payload produced by appendStagePayload.
func decodeStagePayload(payload []byte) (StageRecord, error) {
	var rec StageRecord
	var err error
	bad := func() (StageRecord, error) { return StageRecord{}, ErrBadStage }
	if rec.Path, payload, err = colblob.ReadString(payload); err != nil {
		return bad()
	}
	var u uint64
	if u, payload, err = colblob.ReadUvarint(payload); err != nil {
		return bad()
	}
	rec.Stage = int(u)
	if u, payload, err = colblob.ReadUvarint(payload); err != nil {
		return bad()
	}
	rec.Iter = int(u)
	if rec.Net, payload, err = colblob.ReadString(payload); err != nil {
		return bad()
	}
	if len(payload) < 1 {
		return bad()
	}
	flags := payload[0]
	payload = payload[1:]
	rec.Final = flags&stageFinal != 0
	rec.Done = flags&stageDone != 0
	if flags&stageQuality != 0 {
		if rec.Quality, payload, err = colblob.ReadString(payload); err != nil {
			return bad()
		}
	}
	if flags&stageClass != 0 {
		if rec.Class, payload, err = colblob.ReadString(payload); err != nil {
			return bad()
		}
	}
	if flags&stageError != 0 {
		if rec.Error, payload, err = colblob.ReadString(payload); err != nil {
			return bad()
		}
	}
	if flags&stageResult != 0 {
		if u, payload, err = colblob.ReadUvarint(payload); err != nil {
			return bad()
		}
		res := &StageResult{Iterations: int(u)}
		var f []float64
		if f, payload, err = colblob.ReadFloats(payload); err != nil || len(f) != nStageFloats {
			return bad()
		}
		var arr [nStageFloats]float64
		copy(arr[:], f)
		res.setFields(arr)
		rec.Result = res
	}
	if flags&stageWaves != 0 {
		cols := make([][]float64, 4)
		for i := range cols {
			if cols[i], payload, err = colblob.ReadFloats(payload); err != nil {
				return bad()
			}
		}
		rec.QuietOutT, rec.QuietOutV, rec.NoisyOutT, rec.NoisyOutV = cols[0], cols[1], cols[2], cols[3]
	}
	if len(payload) != 0 {
		return bad()
	}
	return rec, nil
}

// DecodeStage decodes one FramePathStage payload (as surfaced by a
// colblob.FrameReader) into its record — the frame-by-frame entry point
// inspection tools use when walking mixed-kind streams themselves.
func DecodeStage(payload []byte) (StageRecord, error) {
	return decodeStagePayload(payload)
}

type binaryStageCodec struct{}

func (binaryStageCodec) Name() string        { return "binary" }
func (binaryStageCodec) ContentType() string { return clarinet.ContentTypeColblob }

func (binaryStageCodec) NewWriter(w io.Writer) StageWriter { return &binaryStageWriter{w: w} }

type binaryStageWriter struct {
	w       io.Writer
	payload []byte
	frame   []byte
}

func (bw *binaryStageWriter) WriteStage(rec StageRecord) error {
	bw.payload = appendStagePayload(bw.payload[:0], rec)
	bw.frame = colblob.AppendFrame(bw.frame[:0], colblob.FramePathStage, bw.payload)
	_, err := bw.w.Write(bw.frame)
	return err
}

func (binaryStageCodec) NewReader(r io.Reader) StageReader {
	return &binaryStageReader{fr: colblob.NewFrameReader(r)}
}

type binaryStageReader struct{ fr *colblob.FrameReader }

func (br *binaryStageReader) Next() (StageRecord, error) {
	for {
		kind, payload, err := br.fr.Next()
		if err != nil {
			return StageRecord{}, err
		}
		if kind != colblob.FramePathStage {
			continue // summary/heartbeat/unknown frames extend the stream compatibly
		}
		rec, err := decodeStagePayload(payload)
		if err != nil {
			// The frame checksum passed but the payload does not parse.
			// Frames are self-contained, so the reader can skip it.
			return StageRecord{}, ErrBadStage
		}
		return rec, nil
	}
}

// --- journal sink and file handling -----------------------------------

// PathJournal appends stage records through a codec under a mutex, so a
// killed run loses at most the record being written. A nil *PathJournal
// is a valid no-op sink.
type PathJournal struct {
	mu sync.Mutex
	sw StageWriter
}

// NewPathJournal wraps w as a journal sink using codec (nil selects the
// binary default).
func NewPathJournal(w io.Writer, codec StageCodec) *PathJournal {
	if codec == nil {
		codec = BinaryStages
	}
	return &PathJournal{sw: codec.NewWriter(w)}
}

// Record appends one stage record.
func (j *PathJournal) Record(rec StageRecord) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.sw.WriteStage(rec)
}

// ReadPathJournal parses a stage journal (either codec, sniffed from
// the first byte) into records keyed by (path, stage, iter). Malformed
// records — including the torn tail of a killed run — are skipped; the
// last record for a key wins, so journals survive crashes and appended
// resume runs.
func ReadPathJournal(r io.Reader) (map[StageKey]StageRecord, error) {
	out := map[StageKey]StageRecord{}
	br := bufio.NewReaderSize(r, 256*1024)
	first, err := br.Peek(1)
	if err != nil {
		if err == io.EOF {
			return out, nil
		}
		return out, err
	}
	sr := SniffStageCodec(first[0]).NewReader(br)
	for {
		rec, err := sr.Next()
		switch {
		case err == nil:
		case errors.Is(err, ErrBadStage):
			continue
		case err == io.EOF || colblob.Corrupt(err):
			return out, nil
		default:
			return out, err
		}
		if rec.Path == "" || (rec.Result == nil && rec.Error == "") {
			continue // torn or empty record
		}
		out[rec.Key()] = rec
	}
}

// ReadPathJournalFile loads the journal at path as prior records for a
// resumed run; a missing file returns an empty map.
func ReadPathJournalFile(path string) (map[StageKey]StageRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return map[StageKey]StageRecord{}, nil
		}
		return nil, fmt.Errorf("pathnoise: open resume journal: %w", err)
	}
	defer f.Close()
	return ReadPathJournal(f)
}

// OpenPathJournal opens (creating if absent) the stage journal at path
// for appending, repairing the torn tail a killed run leaves: a JSONL
// file ending mid-line gets a newline; a binary file is truncated back
// to the end of its last whole frame. An existing non-empty journal
// keeps its sniffed format regardless of codec, so resume runs never
// interleave encodings. The caller must invoke close when done.
func OpenPathJournal(path string, codec StageCodec) (j *PathJournal, close func() error, err error) {
	if codec == nil {
		codec = BinaryStages
	}
	// Stage frames are self-contained: no decoder state to replay.
	first, ok, err := clarinet.RepairTornTail(path, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("pathnoise: repair torn journal %s: %w", path, err)
	}
	if ok {
		codec = SniffStageCodec(first)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("pathnoise: open journal: %w", err)
	}
	return NewPathJournal(f, codec), f.Close, nil
}
