package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clarinet"
	"repro/internal/pathnoise"
)

// Tracing. A traced run records a span at every layer boundary the
// benchmark can reach from outside the program: each round and batch
// call, each journal record write, each client call, and both sides of
// every HTTP hop (gateway and replica handlers, the gateway's transport
// to its replicas). Spans live in memory and are written out when the
// run ends. The program itself is not instrumented; a nil *tracer
// records nothing, so untraced runs pay one nil check per boundary.

// span is one recorded interval. Parent is the span that caused it (0
// for a root); RequestID is the benchmark-assigned request identity, or
// the gateway's per-shard sub-ID on the replica side.
type span struct {
	ID        int64  `json:"id"`
	Parent    int64  `json:"parent,omitempty"`
	Name      string `json:"name"`
	RequestID string `json:"request_id,omitempty"`
	StartNs   int64  `json:"start_ns"`
	EndNs     int64  `json:"end_ns"`
}

// Span names, one per layer boundary.
const (
	spanSetup        = "setup"
	spanRound        = "round"
	spanBatch        = "clarinet.batch"
	spanPathRun      = "pathnoise.run"
	spanJournalWrite = "journal.write"
	spanLoadWarm     = "warmstore.load"
	spanSaveWarm     = "warmstore.save"
	spanTable        = "align.table"
	spanClient       = "client.analyze"
	spanClientHTTP   = "client.http"
	spanGateway      = "noisegw.handler"
	spanSubrequest   = "noisegw.subrequest"
	spanReplica      = "noised.handler"
)

// spanHeader carries the caller's span ID across an HTTP hop, so the
// handler span on the far side records its parent.
const spanHeader = "X-Noisebench-Span"

type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// activeSpan is an open span; end closes it once.
type activeSpan struct {
	t     *tracer
	s     span
	start time.Time
	once  sync.Once
}

// begin opens a span. On a nil tracer it returns nil, whose end and id
// are no-ops.
func (t *tracer) begin(name string, parent int64, requestID string) *activeSpan {
	if t == nil {
		return nil
	}
	now := time.Now()
	return &activeSpan{t: t, start: now, s: span{
		ID:        t.next.Add(1),
		Parent:    parent,
		Name:      name,
		RequestID: requestID,
		StartNs:   now.Sub(t.epoch).Nanoseconds(),
	}}
}

func (a *activeSpan) id() int64 {
	if a == nil {
		return 0
	}
	return a.s.ID
}

func (a *activeSpan) end() {
	if a == nil {
		return
	}
	a.once.Do(func() {
		a.s.EndNs = a.s.StartNs + time.Since(a.start).Nanoseconds()
		a.t.mu.Lock()
		a.t.spans = append(a.t.spans, a.s)
		a.t.mu.Unlock()
	})
}

type spanKey struct{}

// withSpan records the current span in ctx so calls made under it, and
// the HTTP requests they send, name it as their parent.
func withSpan(ctx context.Context, a *activeSpan) context.Context {
	if a == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, a.s.ID)
}

func spanFrom(ctx context.Context) int64 {
	id, _ := ctx.Value(spanKey{}).(int64)
	return id
}

// requestIDOf reads the request identity the noised wire carries.
func requestIDOf(r *http.Request) string { return r.URL.Query().Get("request_id") }

// handler wraps an HTTP handler in a span whose parent is the span the
// caller sent in spanHeader. With a nil tracer it returns h unchanged.
func (t *tracer) handler(name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		sp := t.begin(name, parent, requestIDOf(r))
		defer sp.end()
		h.ServeHTTP(w, r.WithContext(withSpan(r.Context(), sp)))
	})
}

// transport wraps a RoundTripper in spans that last until the response
// body is closed, since the noised wire is a stream. With a
// nil tracer it returns base unchanged.
func (t *tracer) transport(name string, base http.RoundTripper) http.RoundTripper {
	if t == nil {
		return base
	}
	return &tracedTransport{t: t, name: name, base: base}
}

type tracedTransport struct {
	t    *tracer
	name string
	base http.RoundTripper
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	sp := tt.t.begin(tt.name, spanFrom(req.Context()), requestIDOf(req))
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatInt(sp.id(), 10))
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		sp.end()
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, sp: sp}
	return resp, nil
}

// spanBody ends its span when the caller closes the response body.
type spanBody struct {
	io.ReadCloser
	sp *activeSpan
}

func (b *spanBody) Close() error {
	b.sp.end()
	return b.ReadCloser.Close()
}

// journalStats accumulates the journal layer's work across every
// journal of a run: records written, bytes, and time inside the codec's
// writer (encoding plus the write).
type journalStats struct {
	records atomic.Int64
	bytes   atomic.Int64
	ns      atomic.Int64
}

// countingWriter counts the bytes a codec writes through it.
type countingWriter struct {
	w  io.Writer
	st *journalStats
}

func (c countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.st.bytes.Add(int64(n))
	return n, err
}

// netJournal wraps the binary clarinet journal codec so the journal
// layer can be sized and timed from outside: every record write is
// counted, timed and, in traced runs, recorded as a span under parent;
// done, when set, learns when each record landed.
// It names itself apart from the plain binary codec so that
// clarinet.OpenJournal encodes through it rather than around it; the
// bytes it writes are the binary codec's.
type netJournal struct {
	st     *journalStats
	tr     *tracer
	parent int64
	done   func(time.Time)
}

func (c netJournal) Name() string        { return "binary-measured" }
func (c netJournal) ContentType() string { return clarinet.Binary.ContentType() }

func (c netJournal) NewWriter(w io.Writer) clarinet.RecordWriter {
	return netRecordWriter{c: c, rw: clarinet.Binary.NewWriter(countingWriter{w: w, st: c.st})}
}

func (c netJournal) NewReader(r io.Reader) clarinet.RecordReader {
	return clarinet.Binary.NewReader(r)
}

type netRecordWriter struct {
	c  netJournal
	rw clarinet.RecordWriter
}

func (w netRecordWriter) WriteRecord(rec clarinet.JournalRecord) error {
	sp := w.c.tr.begin(spanJournalWrite, w.c.parent, "")
	start := time.Now()
	err := w.rw.WriteRecord(rec)
	end := w.c.st.record(start)
	sp.end()
	if w.c.done != nil {
		w.c.done(end)
	}
	return err
}

// stageJournal is netJournal for pathnoise stage journals.
type stageJournal struct {
	st     *journalStats
	tr     *tracer
	parent int64
}

func (c stageJournal) Name() string        { return "binary-measured" }
func (c stageJournal) ContentType() string { return pathnoise.BinaryStages.ContentType() }

func (c stageJournal) NewWriter(w io.Writer) pathnoise.StageWriter {
	return stageRecordWriter{c: c, sw: pathnoise.BinaryStages.NewWriter(countingWriter{w: w, st: c.st})}
}

func (c stageJournal) NewReader(r io.Reader) pathnoise.StageReader {
	return pathnoise.BinaryStages.NewReader(r)
}

type stageRecordWriter struct {
	c  stageJournal
	sw pathnoise.StageWriter
}

func (w stageRecordWriter) WriteStage(rec pathnoise.StageRecord) error {
	sp := w.c.tr.begin(spanJournalWrite, w.c.parent, "")
	start := time.Now()
	err := w.sw.WriteStage(rec)
	w.c.st.record(start)
	sp.end()
	return err
}

// journalCounts is a point-in-time copy of journalStats.
type journalCounts struct{ records, bytes, ns int64 }

func (st *journalStats) counts() journalCounts {
	return journalCounts{st.records.Load(), st.bytes.Load(), st.ns.Load()}
}

// record counts one record write that began at start and returns when
// it ended.
func (st *journalStats) record(start time.Time) time.Time {
	end := time.Now()
	st.ns.Add(end.Sub(start).Nanoseconds())
	st.records.Add(1)
	return end
}

// spanStat aggregates the spans of one name: how many, their summed
// duration, and their summed self time — a span's duration minus the
// part of it that its child spans cover.
type spanStat struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func selfTimes(spans []span) map[string]spanStat {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]spanStat{}
	for _, s := range spans {
		dur := s.EndNs - s.StartNs
		covered := coveredNs(s, children[s.ID])
		st := out[s.Name]
		st.Count++
		st.TotalMs += float64(dur) / 1e6
		st.SelfMs += float64(dur-covered) / 1e6
		out[s.Name] = st
	}
	return out
}

// coveredNs is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredNs(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.StartNs, parent.StartNs), min(k.EndNs, parent.EndNs)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// writeSpans writes the run's spans and their per-name self times.
func (t *tracer) writeSpans(path string) (map[string]spanStat, error) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartNs < spans[j].StartNs })
	self := selfTimes(spans)
	b, err := json.MarshalIndent(struct {
		Spans []span              `json:"spans"`
		Self  map[string]spanStat `json:"self"`
	}{spans, self}, "", " ")
	if err != nil {
		return nil, err
	}
	return self, os.WriteFile(path, append(b, '\n'), 0o644)
}
