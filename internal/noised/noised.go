// Package noised is the resident serving layer over the analysis
// engine: a long-running HTTP daemon that owns one engine.Session and
// amortizes its warm state — alignment pre-characterization tables,
// bucketed driver characterizations, holding resistances, PRIMA ROMs —
// across every request, where the one-shot CLI tools rebuild it per
// invocation.
//
// The API is deliberately small:
//
//	POST /v1/analyze  accepts a workload case file (the exact JSON
//	                  schema internal/workload reads and cmd/netgen
//	                  writes) and streams per-net outcomes back as
//	                  NDJSON in completion order, one
//	                  clarinet.JournalRecord per line, terminated by a
//	                  summary line. Analysis options (hold, align,
//	                  rescue, net_timeout, timeout, request_id) ride in
//	                  the query string.
//	POST /v1/analyze-path  accepts a case file with a paths section
//	                  (netgen -topology path) and streams one
//	                  pathnoise.StageRecord per completed stage, ending
//	                  with a summary that carries the assembled path
//	                  reports (pathnoise.MarshalReport-canonical). Extra
//	                  knobs: path_iterations, path_timeout.
//	GET  /healthz     liveness + build identity + load snapshot.
//	GET  /readyz      200 while accepting, 503 once draining.
//	GET  /metrics     the engine metrics registry as JSON.
//
// Admission control keeps the daemon predictable under overload: at
// most MaxInflight requests analyze concurrently, at most MaxQueue wait
// behind them, and everything beyond that is shed immediately with
// 503 + Retry-After so clients back off instead of piling on. The
// request context threads straight into the clarinet pool, so a client
// disconnect or per-request deadline cancels in-flight nets at the next
// solver checkpoint. On SIGTERM the server drains: /readyz flips to
// 503, new analyses are refused, in-flight streams finish.
//
// With JournalDir set, a request that names itself via request_id is
// journaled server-side as it progresses; resubmitting the same
// request_id replays the completed nets from the journal and analyzes
// only the remainder — the serving twin of clarinet's -journal/-resume.
package noised

import (
	"context"
	"log"
	"net/http"
	"time"

	"repro/internal/clarinet"
	"repro/internal/delaynoise"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/noiseerr"
	"repro/internal/pathnoise"
	"repro/internal/resilience"
	"repro/internal/warmstore"
)

// Config assembles a Server. The zero value is usable: library defaults
// for the engine, transient hold, pre-characterized alignment (the
// cache-friendly method a resident service wants), and conservative
// admission limits.
type Config struct {
	// Hold is the default victim holding model (per-request "hold"
	// query overrides).
	Hold delaynoise.HoldModel
	// Align is the default alignment method (per-request "align" query
	// overrides). AlignDefault selects prechar: table-driven alignment
	// is the method whose cost amortizes across requests.
	Align delaynoise.AlignMethod
	// UseConfigAlign keeps Align even when it is the zero value
	// (AlignExhaustive); without it the zero Config picks prechar.
	UseConfigAlign bool
	// Resilience configures the convergence rescue ladder applied to
	// every request that asks for rescue (see resilience.DefaultPolicy).
	// Its NetTimeout is the default per-net deadline (0 = none), which
	// bounds every request, rescued or not, unless the request's
	// "net_timeout" overrides it.
	Resilience resilience.Policy
	// Workers bounds each request's analysis parallelism (0 = one per
	// core, as in clarinet).
	Workers int
	// PrecharGrid is the alignment-table search grid (0 = default 17).
	PrecharGrid int
	// CharCacheRes tunes the driver-characterization cache bucket
	// resolution (0 = default, negative disables).
	CharCacheRes float64

	// MaxInflight is the number of requests analyzed concurrently
	// (default 2).
	MaxInflight int
	// MaxQueue is the number of admitted requests allowed to wait for
	// an analysis slot (default 8). Beyond it the server sheds load
	// with 503 + Retry-After.
	MaxQueue int
	// MaxNets caps the case count of one request (default 5000);
	// larger requests are refused with 413.
	MaxNets int
	// MaxBodyBytes caps the request body (default 64 MiB).
	MaxBodyBytes int64
	// RetryAfter is the backoff hint attached to 503 responses
	// (default 1s; rounded up to whole seconds on the wire).
	RetryAfter time.Duration
	// MaxRequestTimeout caps the per-request "timeout" query parameter
	// and applies when the client sends none (default 15m, 0 keeps the
	// default; negative disables the cap).
	MaxRequestTimeout time.Duration
	// DrainTimeout bounds the graceful drain after shutdown begins
	// (default 60s).
	DrainTimeout time.Duration
	// Heartbeat is the keepalive interval of an idle analyze stream:
	// when no record has been written for this long the server emits a
	// heartbeat line (NDJSON) or frame (colblob) so clients can tell a
	// slow net from a dead server (default 10s; negative disables).
	// Analyze responses advertise the interval in the
	// X-Noised-Heartbeat header, and a gateway's stall watchdog on the
	// stream waits at least three intervals before it cuts it.
	Heartbeat time.Duration

	// JournalDir enables server-side journaling: each request carrying
	// a request_id appends its completed nets to
	// <JournalDir>/<request_id>.journal and a resubmitted request_id
	// resumes from that file (legacy <request_id>.jsonl journals are
	// merged underneath). Empty disables journaling.
	JournalDir string
	// JournalCodec selects the journal encoding for new journal files
	// (nil = the compact binary default; clarinet.JSONL for the debug
	// view). Existing journals keep their own sniffed format.
	JournalCodec clarinet.JournalCodec

	// WarmStoreDir enables the content-addressed warm-start store: at
	// startup the session seeds its caches from the entry matching its
	// identity (store.hits / store.misses in /metrics), and on drain it
	// saves the accumulated state back. Empty disables the store.
	WarmStoreDir string

	// Metrics receives server and engine instrumentation (nil installs
	// a fresh registry). Ignored when Session is set.
	Metrics *metrics.Registry
	// Session, when non-nil, backs the server with an existing engine
	// session (tests and embedders); the engine knobs above are then
	// ignored.
	Session *engine.Session
}

// Defaults, exported so cmd/noised flag help and the tests agree with
// the server.
const (
	DefaultMaxInflight       = 2
	DefaultMaxQueue          = 8
	DefaultMaxNets           = 5000
	DefaultMaxBodyBytes      = 64 << 20
	DefaultRetryAfter        = time.Second
	DefaultMaxRequestTimeout = 15 * time.Minute
	DefaultDrainTimeout      = 60 * time.Second
	DefaultHeartbeat         = 10 * time.Second
)

func (c *Config) defaults() {
	if !c.UseConfigAlign && c.Align == delaynoise.AlignExhaustive {
		c.Align = delaynoise.AlignPrechar
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = DefaultMaxInflight
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	} else if c.MaxQueue == 0 {
		c.MaxQueue = DefaultMaxQueue
	}
	if c.MaxNets <= 0 {
		c.MaxNets = DefaultMaxNets
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = DefaultRetryAfter
	}
	if c.MaxRequestTimeout == 0 {
		c.MaxRequestTimeout = DefaultMaxRequestTimeout
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = DefaultDrainTimeout
	}
	if c.Heartbeat == 0 {
		c.Heartbeat = DefaultHeartbeat
	}
}

// runBatchFunc is the seam between the serving layer and the analysis
// pool; tests substitute controllable fakes for the real clarinet
// stream.
type runBatchFunc func(t *clarinet.Tool, ctx context.Context, names []string, cases []*delaynoise.Case, prior map[string]clarinet.NetReport, j *clarinet.Journal) <-chan clarinet.NetReport

// Server is the noised daemon: one warm engine session behind an
// admission-controlled streaming HTTP API. Build one with New; it is
// safe for concurrent use.
type Server struct {
	cfg      Config
	session  *engine.Session
	store    *warmstore.Store
	reg      *metrics.Registry
	front    *Front
	mux      *http.ServeMux
	started  time.Time
	instance string

	runBatch runBatchFunc
	runPaths runPathsFunc
}

// New builds a server from cfg (see Config for zero-value defaults).
func New(cfg Config) (*Server, error) {
	cfg.defaults()
	if cfg.Workers < 0 {
		return nil, noiseerr.Invalidf("noised: negative worker count %d", cfg.Workers)
	}
	sess := cfg.Session
	if sess == nil {
		sess = engine.New(engine.Config{
			Metrics:      cfg.Metrics,
			PrecharGrid:  cfg.PrecharGrid,
			CharCacheRes: cfg.CharCacheRes,
		})
	}
	var store *warmstore.Store
	if cfg.WarmStoreDir != "" {
		var err error
		store, err = warmstore.Open(cfg.WarmStoreDir, sess.Metrics())
		if err != nil {
			return nil, err
		}
		if ok, err := sess.LoadWarm(store); err != nil {
			return nil, err
		} else if ok {
			log.Printf("warm start: loaded session state from %s (%d alignment tables resident)",
				cfg.WarmStoreDir, sess.TableCount())
		} else {
			log.Printf("warm start: no state for this session identity in %s (cold start)", cfg.WarmStoreDir)
		}
	}
	s := &Server{
		cfg:      cfg,
		session:  sess,
		store:    store,
		reg:      sess.Metrics(),
		started:  time.Now(),
		instance: NewInstanceID(),
		runBatch: func(t *clarinet.Tool, ctx context.Context, names []string, cases []*delaynoise.Case, prior map[string]clarinet.NetReport, j *clarinet.Journal) <-chan clarinet.NetReport {
			return t.StreamBatch(ctx, names, cases, prior, j)
		},
		runPaths: pathnoise.Run,
	}
	s.front = &Front{
		Name:              "noised",
		Instance:          s.instance,
		Reg:               s.reg,
		Gate:              NewGate("noised", "server", cfg.MaxInflight, cfg.MaxQueue, s.reg.Gauge(mServerInflight), s.reg.Gauge(mServerQueueDepth)),
		RetryAfter:        cfg.RetryAfter,
		Heartbeat:         cfg.Heartbeat,
		MaxBodyBytes:      cfg.MaxBodyBytes,
		MaxRequestTimeout: cfg.MaxRequestTimeout,
		DrainTimeout:      cfg.DrainTimeout,
		Defaults: Options{
			Hold:       cfg.Hold,
			Align:      cfg.Align,
			Rescue:     cfg.Resilience.Enabled(),
			NetTimeout: cfg.Resilience.NetTimeout,
			Iterations: pathnoise.DefaultMaxIterations,
		},
		Counters: Counters{
			Requests:           mServerRequests,
			RejectedDraining:   mServerRejectedDraining,
			RejectedValidation: mServerRejectedValidation,
			RejectedQueue:      mServerRejectedQueue,
			Heartbeats:         mServerHeartbeats,
			NetsStreamed:       mServerNetsStreamed,
			StagesStreamed:     mServerStagesStreamed,
		},
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST "+Analyze.Path, func(w http.ResponseWriter, r *http.Request) {
		Handle(s.front, Analyze, &netExchange{s: s}, w, r)
	})
	s.mux.HandleFunc("POST "+AnalyzePath.Path, func(w http.ResponseWriter, r *http.Request) {
		Handle(s.front, AnalyzePath, &pathExchange{s: s}, w, r)
	})
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// SaveWarm persists the session's accumulated state to the warm store
// (no-op without one). Serve calls it after the drain completes; it is
// also safe to call at any quiescent point.
func (s *Server) SaveWarm() error {
	if s.store == nil {
		return nil
	}
	return s.session.SaveWarm(s.store)
}

// Metrics returns the server's instrumentation registry.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Handler returns the server's HTTP handler, for mounting under
// httptest or a custom http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// Draining reports whether the server has begun its graceful drain.
func (s *Server) Draining() bool { return s.front.Gate.Draining() }
