package noised

import (
	"bufio"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"net/url"
	"regexp"
	"strconv"
	"strings"
	"time"

	"repro/internal/clarinet"
	"repro/internal/colblob"
	"repro/internal/delaynoise"
	"repro/internal/metrics"
	"repro/internal/noiseerr"
	"repro/internal/pathnoise"
)

// The serving spine: the one request skeleton, wire writer, option
// parser, admission gate and drain loop that both serving binaries —
// this daemon and the noisegw gateway — run every analyze request
// through. A route (Route) fixes what goes over the wire; an endpoint
// supplies only what is its own (an Exchange): how it loads the body,
// where its records come from, how it tallies them and what its summary
// says.

// Front is one serving binary's intake: its identity, load gate, limits
// and the intake counters it keeps.
type Front struct {
	Name     string // prefix of validation messages, e.g. "noised"
	Instance string // the X-Noised-Instance value
	Reg      *metrics.Registry
	Gate     *Gate

	RetryAfter        time.Duration // backoff hint on 503s
	Heartbeat         time.Duration // idle-stream keepalive (<= 0 disables)
	MaxBodyBytes      int64
	MaxRequestTimeout time.Duration // caps and defaults "timeout" (<= 0: no cap)
	DrainTimeout      time.Duration

	// Defaults are the option values a request leaves unset.
	Defaults Options
	Counters Counters
}

// Counters names the metrics a Front increments; an empty name is not
// kept.
type Counters struct {
	Requests, RejectedDraining, RejectedValidation, RejectedQueue string
	Heartbeats, NetsStreamed, StagesStreamed                      string
}

func (f *Front) count(name string) {
	if name != "" {
		f.Reg.Counter(name).Inc()
	}
}

// Unavailable sheds one request: 503 with the Retry-After backoff hint.
func (f *Front) Unavailable(w http.ResponseWriter, reason string) {
	w.Header().Set("Retry-After", RetryAfterSeconds(f.RetryAfter))
	http.Error(w, reason, http.StatusServiceUnavailable)
}

// RetryAfterSeconds renders a Retry-After hint in whole seconds,
// rounding up so a sub-second hint does not collapse to "0".
func RetryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// ParseRetryAfter reads a delay-seconds Retry-After value (the only
// form the serving binaries emit); anything else maps to zero.
func ParseRetryAfter(v string) time.Duration {
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// NewInstanceID mints a random per-process identity, exposed on
// /healthz and the X-Noised-Instance header. A gateway that sees the
// instance change behind an address knows the replica restarted (and
// lost any unjournaled state), not merely blipped.
func NewInstanceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand is documented never to fail on supported
		// platforms; fall back to a stable marker rather than crash.
		return "instance-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// Options are one analyze request's query knobs over the Front's
// defaults, validated by the parser both binaries share: a gateway can
// accept exactly what its replicas accept.
type Options struct {
	Hold        delaynoise.HoldModel
	Align       delaynoise.AlignMethod
	Rescue      bool
	NetTimeout  time.Duration
	Timeout     time.Duration
	RequestID   string
	Iterations  int           // path routes: window-fixpoint passes
	PathTimeout time.Duration // path routes: per-path budget

	// Forward holds the analysis options exactly as received (never
	// request_id), for a gateway to pass on to its replicas.
	Forward url.Values
}

// maxPathIterations bounds the per-request window-fixpoint ladder so a
// client cannot multiply the server's work without bound.
const maxPathIterations = 8

// requestIDPattern bounds request IDs to filesystem- and header-safe
// names, since they become journal file names.
var requestIDPattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,99}$`)

// ValidRequestID reports whether id is acceptable as a request_id —
// the gateway derives its per-shard sub-request IDs from such IDs.
func ValidRequestID(id string) bool { return requestIDPattern.MatchString(id) }

// parseOptions validates the query string of an analyze request; paths
// adds the path-route knobs.
func (f *Front) parseOptions(r *http.Request, paths bool) (Options, error) {
	q := r.URL.Query()
	opt := f.Defaults
	opt.Forward = url.Values{}
	forward := func(key string) string {
		v := q.Get(key)
		if v != "" {
			opt.Forward.Set(key, v)
		}
		return v
	}
	duration := func(key string, dst *time.Duration) error {
		v := forward(key)
		if v == "" {
			return nil
		}
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			return noiseerr.Invalidf("%s: bad %s %q", f.Name, key, v)
		}
		*dst = d
		return nil
	}
	if v := forward("hold"); v != "" {
		h, err := clarinet.ParseHold(v)
		if err != nil {
			return opt, err
		}
		opt.Hold = h
	}
	if v := forward("align"); v != "" {
		a, err := clarinet.ParseAlign(v)
		if err != nil {
			return opt, err
		}
		opt.Align = a
	}
	if v := forward("rescue"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return opt, noiseerr.Invalidf("%s: bad rescue %q: %w", f.Name, v, err)
		}
		opt.Rescue = b
	}
	if err := duration("net_timeout", &opt.NetTimeout); err != nil {
		return opt, err
	}
	if err := duration("timeout", &opt.Timeout); err != nil {
		return opt, err
	}
	if limit := f.MaxRequestTimeout; limit > 0 {
		if opt.Timeout <= 0 || opt.Timeout > limit {
			opt.Timeout = limit
		}
	}
	opt.RequestID = r.Header.Get("X-Request-ID")
	if v := q.Get("request_id"); v != "" {
		opt.RequestID = v
	}
	if opt.RequestID != "" && !ValidRequestID(opt.RequestID) {
		return opt, noiseerr.Invalidf("%s: bad request_id %q (want %s)", f.Name, opt.RequestID, requestIDPattern)
	}
	if !paths {
		return opt, nil
	}
	if v := forward("path_iterations"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > maxPathIterations {
			return opt, noiseerr.Invalidf("%s: bad path_iterations %q (want 1..%d)", f.Name, v, maxPathIterations)
		}
		opt.Iterations = n
	}
	return opt, duration("path_timeout", &opt.PathTimeout)
}

// StatusError is a refusal carrying its HTTP status.
type StatusError struct {
	Code int
	Err  error
}

func (e *StatusError) Error() string { return e.Err.Error() }
func (e *StatusError) Unwrap() error { return e.Err }

// statusOf is err's StatusError code, or def.
func statusOf(err error, def int) int {
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code
	}
	return def
}

// A Route is one analyze endpoint's fixed shape, the same on the daemon
// and the gateway: its URL path, its records R and terminal summary S on
// the wire — NDJSON lines (the default) or negotiated colblob frames —
// and whether it takes the path knobs.
type Route[R, S any] struct {
	Path  string
	paths bool

	// binary opens the colblob record writer: the same encoding the
	// binary journal uses, so per-net records chain their compression
	// state within one stream and stage records are self-contained.
	binary func(io.Writer) func(R) error
	// line builds an NDJSON heartbeat (sum nil) or summary line.
	line func(heartbeat bool, sum *S) any
	// decode splits one NDJSON line into its record or summary.
	decode func(line []byte) (R, *S, error)
	// stamp fills the summary's timing and retry hints.
	stamp func(sum *S, elapsedMS int64, deadline, draining bool)
	// maxLine bounds an NDJSON reader's line. The buffer starts small
	// and grows to it only as long lines need: most streams are short.
	maxLine int
}

var (
	// Analyze streams one clarinet.JournalRecord per net, ending in a
	// Summary ({"summary": ...} on NDJSON).
	Analyze = &Route[clarinet.JournalRecord, Summary]{
		Path:   "/v1/analyze",
		binary: func(w io.Writer) func(clarinet.JournalRecord) error { return clarinet.Binary.NewWriter(w).WriteRecord },
		line:   func(hb bool, sum *Summary) any { return StreamLine{Heartbeat: hb, Summary: sum} },
		decode: func(line []byte) (clarinet.JournalRecord, *Summary, error) {
			var sl StreamLine
			err := json.Unmarshal(line, &sl)
			return sl.JournalRecord, sl.Summary, err
		},
		stamp: func(s *Summary, ms int64, deadline, draining bool) {
			s.ElapsedMS, s.Deadline, s.Draining = ms, deadline, draining
		},
		maxLine: 1 << 20,
	}
	// AnalyzePath streams one pathnoise.StageRecord per completed stage,
	// ending in a PathSummary ({"pathSummary": ...} on NDJSON).
	AnalyzePath = &Route[pathnoise.StageRecord, PathSummary]{
		Path:  "/v1/analyze-path",
		paths: true,
		binary: func(w io.Writer) func(pathnoise.StageRecord) error {
			return pathnoise.BinaryStages.NewWriter(w).WriteStage
		},
		line: func(hb bool, sum *PathSummary) any { return PathStreamLine{Heartbeat: hb, Summary: sum} },
		decode: func(line []byte) (pathnoise.StageRecord, *PathSummary, error) {
			var sl PathStreamLine
			err := json.Unmarshal(line, &sl)
			return sl.StageRecord, sl.Summary, err
		},
		stamp: func(s *PathSummary, ms int64, deadline, draining bool) {
			s.ElapsedMS, s.Deadline, s.Draining = ms, deadline, draining
		},
		// Waveform series make stage lines far longer than net lines.
		maxLine: 16 << 20,
	}
)

// Scanner reads the route's NDJSON stream line by line.
func (rt *Route[R, S]) Scanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, rt.maxLine)
	return sc
}

// Decode parses one NDJSON line of the route: a record, a heartbeat
// (zero record, nil summary) or the summary.
func (rt *Route[R, S]) Decode(line []byte) (R, *S, error) { return rt.decode(line) }

// streamWriter writes one response stream in the negotiated encoding.
type streamWriter[R, S any] struct {
	rt  *Route[R, S]
	w   io.Writer
	enc *json.Encoder // NDJSON; nil on the colblob wire
	bin func(R) error // colblob record writer
	buf []byte
}

// negotiate picks the response encoding from the Accept header: a
// client that asks for application/x-noise-colblob gets the binary
// wire, everyone else the NDJSON default.
func (rt *Route[R, S]) negotiate(r *http.Request, w io.Writer) (*streamWriter[R, S], string) {
	sw := &streamWriter[R, S]{rt: rt, w: w}
	if strings.Contains(r.Header.Get("Accept"), clarinet.ContentTypeColblob) {
		sw.bin = rt.binary(w)
		return sw, clarinet.ContentTypeColblob
	}
	sw.enc = json.NewEncoder(w)
	return sw, clarinet.ContentTypeNDJSON
}

func (s *streamWriter[R, S]) record(rec R) error {
	if s.enc != nil {
		return s.enc.Encode(rec)
	}
	return s.bin(rec)
}

func (s *streamWriter[R, S]) heartbeat() error {
	if s.enc != nil {
		return s.enc.Encode(s.rt.line(true, nil))
	}
	return s.frame(colblob.FrameHeartbeat, nil)
}

// summary writes the terminal line, or on colblob a summary frame with
// a JSON payload (it occurs once, so its schema stays shared with the
// NDJSON wire).
func (s *streamWriter[R, S]) summary(sum *S) error {
	if s.enc != nil {
		return s.enc.Encode(s.rt.line(false, sum))
	}
	payload, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	return s.frame(colblob.FrameSummary, payload)
}

func (s *streamWriter[R, S]) frame(kind byte, payload []byte) error {
	s.buf = colblob.AppendFrame(s.buf[:0], kind, payload)
	_, err := s.w.Write(s.buf)
	return err
}

// An Exchange is one endpoint's own half of an analyze request; Handle
// runs the rest. A fresh value serves each request.
type Exchange[E, R, S any] interface {
	// Load reads and validates the size-capped request body. A
	// StatusError picks the refusal status; other errors answer 400.
	Load(body io.Reader) error
	// Start begins the admitted work under ctx. It returns the element
	// source, which its producer closes when the work is done, and an
	// optional release run when the request ends. An error answers 500,
	// or the StatusError's code (a 503 carries Retry-After).
	Start(ctx context.Context, opt Options) (src <-chan E, release func() error, err error)
	// Record tallies one source element and renders its wire record.
	// Handle calls it for every element, after a broken pipe too.
	Record(e E) R
	// Summary runs once the source has closed on an intact stream. It
	// may write trailing records and returns the summary Handle stamps
	// and writes last.
	Summary(ctx context.Context, write func(R) error) (*S, error)
}

// Handle serves one analyze request on route rt: drain check, option
// parse, body cap, admission, the deadline context, the response
// headers, then the stream — records as the source yields them,
// heartbeats while it is idle — and the summary.
func Handle[E, R, S any](f *Front, rt *Route[R, S], ex Exchange[E, R, S], w http.ResponseWriter, r *http.Request) {
	f.count(f.Counters.Requests)
	if f.Gate.Draining() {
		f.count(f.Counters.RejectedDraining)
		f.Unavailable(w, "draining")
		return
	}
	opt, err := f.parseOptions(r, rt.paths)
	if err == nil {
		r.Body = http.MaxBytesReader(w, r.Body, f.MaxBodyBytes)
		err = ex.Load(r.Body)
	}
	if err != nil {
		f.count(f.Counters.RejectedValidation)
		http.Error(w, err.Error(), statusOf(err, http.StatusBadRequest))
		return
	}

	// Admission: wait for a slot in the bounded queue.
	switch err := f.Gate.acquire(r.Context()); err {
	case nil:
		defer f.Gate.release()
	case f.Gate.errFull, f.Gate.errDraining:
		f.count(f.Counters.RejectedQueue)
		f.Unavailable(w, err.Error())
		return
	default:
		return // the client went away while queued; nothing to answer
	}

	// The stream context: the request context (client disconnect)
	// bounded by the per-request deadline, and cancelable from the
	// write path so a broken pipe stops the work promptly.
	ctx := r.Context()
	var cancel context.CancelFunc
	if opt.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, opt.Timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	src, release, err := ex.Start(ctx, opt)
	if err != nil {
		if code := statusOf(err, http.StatusInternalServerError); code == http.StatusServiceUnavailable {
			f.Unavailable(w, err.Error())
		} else {
			http.Error(w, err.Error(), code)
		}
		return
	}
	if release != nil {
		defer release()
	}

	stream, contentType := rt.negotiate(r, w)
	h := w.Header()
	h.Set("Content-Type", contentType)
	h.Set("Cache-Control", "no-store")
	h.Set(InstanceHeader, f.Instance)
	if f.Heartbeat > 0 {
		h.Set(HeartbeatHeader, f.Heartbeat.String())
	}
	if opt.RequestID != "" {
		h.Set("X-Request-ID", opt.RequestID)
	}
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	// Push the header out now: the client should learn the request was
	// accepted before the first (possibly slow) record.
	rc.Flush()

	start := time.Now()
	streamed := f.Counters.NetsStreamed
	if rt.paths {
		streamed = f.Counters.StagesStreamed
	}
	// Heartbeats keep an idle stream distinguishable from a dead
	// server: whenever nothing has gone out for a full interval, an
	// empty keepalive line/frame does. The ticker resets on every real
	// record so a busy stream never carries them.
	var hbC <-chan time.Time
	var hb *time.Ticker
	if f.Heartbeat > 0 {
		hb = time.NewTicker(f.Heartbeat)
		defer hb.Stop()
		hbC = hb.C
	}
	writeOK := true
loop:
	for {
		var err error
		select {
		case e, ok := <-src:
			if !ok {
				break loop
			}
			rec := ex.Record(e)
			if !writeOK {
				continue // keep draining the source after a broken pipe
			}
			f.count(streamed)
			if err = stream.record(rec); err == nil && hb != nil {
				hb.Reset(f.Heartbeat)
			}
		case <-hbC:
			f.count(f.Counters.Heartbeats)
			err = stream.heartbeat()
		}
		if err != nil {
			writeOK, hbC = false, nil
			cancel() // stop the work for a client that is gone
			continue
		}
		rc.Flush()
	}
	if !writeOK {
		return
	}
	sum, err := ex.Summary(ctx, stream.record)
	if err != nil {
		return // a trailing record met a broken pipe
	}
	rt.stamp(sum, time.Since(start).Milliseconds(), ctx.Err() == context.DeadlineExceeded, f.Gate.Draining())
	if err := stream.summary(sum); err == nil {
		rc.Flush()
	}
}

// Serve accepts connections for h on ln until ctx is canceled, then
// drains gracefully: the gate flips into drain mode (readiness answers
// 503, new analyses are refused with Retry-After), in-flight streams
// run to completion, and only when they finish — or the DrainTimeout
// budget expires, whichever is first — does Serve return. On budget
// expiry the remaining connections are force-closed, which cancels
// their request contexts and stops their work at the next checkpoint.
func (f *Front) Serve(ctx context.Context, ln net.Listener, h http.Handler) error {
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	// The acceptor is bounded by srv's lifetime: Serve returns once
	// Shutdown or Close runs below, the buffered send never blocks, and
	// both drain branches join it by receiving from errCh.
	//lint:ignore noiselint/goleak bounded by srv.Shutdown/Close below; errCh is buffered and drained on both exits
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
	}
	f.Gate.Drain()
	log.Printf("draining in-flight requests (budget %v)", f.DrainTimeout)
	// The run context is already canceled; the drain needs its own
	// deadline that is not.
	dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), f.DrainTimeout)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		// Budget exhausted: force-close the stragglers so their request
		// contexts cancel and the process can exit.
		log.Printf("drain budget exhausted: %v; closing remaining connections", err)
		srv.Close()
		return err
	}
	return nil
}
