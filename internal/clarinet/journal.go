package clarinet

import (
	"bufio"
	"errors"
	"io"
	"sync"

	"repro/internal/colblob"
	"repro/internal/delaynoise"
	"repro/internal/noiseerr"
	"repro/internal/resilience"
)

// JournalResult is the scalar subset of a delaynoise.Result that a
// journal preserves across a checkpoint/resume cycle: everything the
// reports and JSON output render, without the waveform payloads.
// encoding/json round-trips float64 exactly, so a resumed report
// renders byte-identically to the uninterrupted run.
type JournalResult struct {
	VictimCeff             float64 `json:"victimCeff"`
	VictimRth              float64 `json:"victimRth"`
	VictimRtr              float64 `json:"victimRtr"`
	PulseHeight            float64 `json:"pulseHeight"`
	PulseWidth             float64 `json:"pulseWidth"`
	TPeak                  float64 `json:"tPeak"`
	QuietCombinedDelay     float64 `json:"quietCombinedDelay"`
	NoisyCombinedDelay     float64 `json:"noisyCombinedDelay"`
	DelayNoise             float64 `json:"delayNoise"`
	InterconnectDelayNoise float64 `json:"interconnectDelayNoise"`
	Iterations             int     `json:"iterations"`
}

// JournalRecord is one JSONL line of a batch journal — and one NDJSON
// line of the noised streaming wire protocol: the outcome of one net,
// success or failure.
type JournalRecord struct {
	Net     string         `json:"net"`
	Quality string         `json:"quality,omitempty"`
	Class   string         `json:"class,omitempty"`
	Error   string         `json:"error,omitempty"`
	Result  *JournalResult `json:"result,omitempty"`
}

// ToRecord converts a completed report to its serialized journal/wire
// form. Cancellation-class reports return ok=false: a net aborted by a
// dying batch has no outcome worth replaying or transmitting.
func ToRecord(r NetReport) (JournalRecord, bool) {
	if r.Err != nil && noiseerr.Class(r.Err) == noiseerr.ErrCanceled {
		return JournalRecord{}, false
	}
	rec := JournalRecord{Net: r.Name}
	if r.Err != nil {
		rec.Error = r.Err.Error()
		rec.Class = noiseerr.ClassName(r.Err)
		return rec, true
	}
	rec.Quality = r.Quality.String()
	res := r.Res
	rec.Result = &JournalResult{
		VictimCeff:             res.VictimCeff,
		VictimRth:              res.VictimRth,
		VictimRtr:              res.VictimRtr,
		PulseHeight:            res.Pulse.Height,
		PulseWidth:             res.Pulse.Width,
		TPeak:                  res.TPeak,
		QuietCombinedDelay:     res.QuietCombinedDelay,
		NoisyCombinedDelay:     res.NoisyCombinedDelay,
		DelayNoise:             res.DelayNoise,
		InterconnectDelayNoise: res.InterconnectDelayNoise,
		Iterations:             res.Iterations,
	}
	return rec, true
}

// ToWireRecord serializes one report for a result stream. Unlike the
// journal form (ToRecord), canceled nets are transmitted — class
// "canceled", no result — because the client needs to know which nets a
// dying request never finished, even though a resumed request will
// re-analyze them.
func ToWireRecord(r NetReport) JournalRecord {
	if rec, ok := ToRecord(r); ok {
		return rec
	}
	return JournalRecord{
		Net:   r.Name,
		Class: noiseerr.ClassName(r.Err),
		Error: r.Err.Error(),
	}
}

// Report reconstructs the report a record describes. Torn records — no
// net name, or neither a result nor an error — return ok=false.
// encoding/json round-trips float64 exactly, so a reconstructed report
// renders byte-identically to the original.
func (rec JournalRecord) Report() (NetReport, bool) {
	if rec.Net == "" {
		return NetReport{}, false
	}
	rep := NetReport{Name: rec.Net}
	switch {
	case rec.Error != "":
		rep.Err = &resumedError{msg: rec.Error, class: noiseerr.ClassFromName(rec.Class)}
	case rec.Result != nil:
		res := rec.Result
		rep.Quality = resilience.QualityFromString(rec.Quality)
		rep.Res = &delaynoise.Result{
			VictimCeff:             res.VictimCeff,
			VictimRth:              res.VictimRth,
			VictimRtr:              res.VictimRtr,
			TPeak:                  res.TPeak,
			QuietCombinedDelay:     res.QuietCombinedDelay,
			NoisyCombinedDelay:     res.NoisyCombinedDelay,
			DelayNoise:             res.DelayNoise,
			InterconnectDelayNoise: res.InterconnectDelayNoise,
			Iterations:             res.Iterations,
		}
		rep.Res.Pulse.Height = res.PulseHeight
		rep.Res.Pulse.Width = res.PulseWidth
	default:
		return NetReport{}, false
	}
	return rep, true
}

// Journal appends completed net reports to a record stream through a
// JournalCodec. Every record is encoded and written individually under
// a mutex, so a killed run loses at most the record being written —
// which readers of either codec tolerate (torn JSONL line, torn binary
// frame). A nil *Journal is a valid no-op sink.
type Journal struct {
	mu sync.Mutex
	rw RecordWriter
}

// NewJournalWith wraps w as a journal sink using the given codec (nil
// means the binary default). File-backed journals go through
// OpenJournal, which keeps an existing file's codec.
func NewJournalWith(w io.Writer, codec JournalCodec) *Journal {
	if codec == nil {
		codec = Binary
	}
	return &Journal{rw: codec.NewWriter(w)}
}

// Record appends one report. Cancellation-class reports are skipped —
// a net aborted by a dying batch has no outcome worth replaying, and
// skipping it makes the net eligible for re-analysis on resume.
// Deadline, panic, and other real failures are recorded: the resumed
// run reproduces them without re-spending their budgets.
func (j *Journal) Record(r NetReport) error {
	if j == nil {
		return nil
	}
	rec, ok := ToRecord(r)
	if !ok {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rw.WriteRecord(rec)
}

// resumedError reconstructs a journaled failure: Error() reproduces the
// recorded message byte-for-byte (so resumed reports render identically)
// and Unwrap restores errors.Is matching against the recorded
// noiseerr class sentinel.
type resumedError struct {
	msg   string
	class error
}

func (e *resumedError) Error() string { return e.msg }

func (e *resumedError) Unwrap() error { return e.class }

// ReadJournal parses a batch journal — either codec, sniffed from the
// first byte — into reports keyed by net name, ready to hand to
// AnalyzeBatch as prior results. Malformed records — including the torn
// tail of a killed run — are skipped, the last record for a net wins,
// so journals survive crashes and appended resume runs.
func ReadJournal(r io.Reader) (map[string]NetReport, error) {
	out := map[string]NetReport{}
	br := bufio.NewReader(r)
	first, err := br.Peek(1)
	if err != nil {
		if err == io.EOF {
			return out, nil
		}
		return out, err
	}
	rr := SniffCodec(first[0]).NewReader(br)
	for {
		rec, err := rr.Next()
		switch {
		case err == nil:
		case errors.Is(err, ErrBadRecord):
			continue // one malformed record; the stream goes on
		case err == io.EOF || colblob.Corrupt(err):
			return out, nil // clean end, or the torn tail of a killed run
		default:
			return out, err
		}
		rep, ok := rec.Report()
		if !ok {
			continue // a record with no net or neither outcome is torn
		}
		out[rec.Net] = rep
	}
}
