// Package noisegw is the scatter-gather coordinator over a fleet of
// noised replicas: one gateway endpoint that accepts the same
// POST /v1/analyze a single replica does, shards the case set across
// the fleet by consistent hash of characterization bucket (victim
// driver cell × input-slew band, the unit of engine cache locality),
// streams every shard concurrently, and merges the per-net records back
// to the client in completion order with exactly-once delivery per net.
//
// The point of the gateway is the failure path:
//
//   - Replicas are health-probed; consecutive failures eject one with
//     an exponentially backed-off rejoin window (circuit breaking), and
//     a changed instance identity is recognized as a restart.
//   - A shard stream that tears mid-frame, stalls past the heartbeat
//     budget, or dies with its replica is detected, the replica is
//     struck, and the shard's unfinished nets are re-sharded onto the
//     surviving replicas — bounded by MaxReshards hops.
//   - Exactly-once per net is enforced at the merge: the first real
//     outcome for a net wins, replays from replica-side journal resume
//     are dropped, and canceled placeholders never
//     finalize a net (the reshard completes it instead).
//   - Backpressure propagates end to end: replica sheds (503) back off
//     the sub-request with capped jittered delays, and the gateway's
//     own admission gate sheds clients with 503 + Retry-After when the
//     fleet is saturated or empty.
//
// POST /v1/analyze-path works the same way with whole paths as the
// shard unit (see paths.go). Both routes run noised's serving spine, so
// the wire is exactly the noised wire — NDJSON or negotiated colblob
// frames, heartbeats included, terminated by the same summary schema —
// and noisectl and client.Client work against a gateway unchanged.
package noisegw

import (
	"net/http"
	"time"

	"repro/internal/metrics"
	"repro/internal/noised"
	"repro/internal/noiseerr"
)

// Config assembles a Gateway. Replicas is required; everything else
// has serving defaults.
type Config struct {
	// Replicas are the noised base URLs to scatter over, e.g.
	// ["http://127.0.0.1:9001", "http://127.0.0.1:9002"].
	Replicas []string

	// MaxInflight bounds concurrently coordinated requests (default 4).
	MaxInflight int
	// MaxQueue bounds admitted requests waiting for a slot (default 16);
	// beyond it clients are shed with 503 + Retry-After.
	MaxQueue int
	// MaxNets caps one request's case count (default 200000 — the
	// gateway exists to take batches no single replica would).
	MaxNets int
	// MaxBodyBytes caps the request body (default 512 MiB).
	MaxBodyBytes int64
	// RetryAfter is the backoff hint on 503 responses (default 1s).
	RetryAfter time.Duration
	// MaxRequestTimeout caps the per-request "timeout" query parameter
	// and applies when the client sends none (default 15m; negative
	// disables the cap).
	MaxRequestTimeout time.Duration
	// DrainTimeout bounds the graceful drain (default 60s).
	DrainTimeout time.Duration
	// Heartbeat is the keepalive interval on the gateway's own client
	// streams (default 10s; negative disables).
	Heartbeat time.Duration

	// ProbeInterval is the replica health-probe period (default 2s).
	// One /readyz probe times out after 2s.
	ProbeInterval time.Duration
	// MaxStrikes is the consecutive-failure count that trips a
	// replica's breaker (default 3; probes and streams both count).
	MaxStrikes int
	// EjectBackoff is the first ejection window (default 1s); each
	// consecutive trip doubles it, up to 30s.
	EjectBackoff time.Duration

	// StallTimeout cuts a shard stream that has produced no event —
	// record, heartbeat, or summary — for this long (default 30s). A
	// replica that advertises its heartbeat interval
	// (noised.HeartbeatHeader) gets at least three intervals instead,
	// so one that heartbeats on schedule is never cut.
	StallTimeout time.Duration
	// MaxReshards bounds how many times one net may be redistributed
	// after failures before the gateway reports it failed (default 4).
	MaxReshards int
	// ShedRetries is how many consecutive 503s one sub-request absorbs
	// before the shard is resharded elsewhere (default 5).
	ShedRetries int
	// ShedBackoff is the base backoff between shed retries (default
	// 200ms, doubling, capped at 5s, jittered).
	ShedBackoff time.Duration

	// HTTPClient overrides the transport to the replicas (nil uses
	// http.DefaultClient; the default has no overall timeout, which a
	// long-lived shard stream needs).
	HTTPClient *http.Client
	// Metrics receives gateway instrumentation (nil installs a fresh
	// registry).
	Metrics *metrics.Registry
	// Logf receives health transitions and recovery decisions (nil =
	// silent).
	Logf func(format string, args ...any)
}

// Defaults, exported so cmd/noisegw flag help and the tests agree with
// the gateway.
const (
	DefaultMaxInflight       = 4
	DefaultMaxQueue          = 16
	DefaultMaxNets           = 200000
	DefaultMaxBodyBytes      = 512 << 20
	DefaultRetryAfter        = time.Second
	DefaultMaxRequestTimeout = 15 * time.Minute
	DefaultDrainTimeout      = 60 * time.Second
	DefaultHeartbeat         = 10 * time.Second
	DefaultProbeInterval     = 2 * time.Second
	DefaultMaxStrikes        = 3
	DefaultEjectBackoff      = time.Second
	DefaultStallTimeout      = 30 * time.Second
	DefaultMaxReshards       = 4
	DefaultShedRetries       = 5
	DefaultShedBackoff       = 200 * time.Millisecond
)

// Fixed bounds: one health probe's timeout, and the caps of the
// doubling ejection window and shed backoff.
const (
	probeTimeout    = 2 * time.Second
	maxEjectBackoff = 30 * time.Second
	maxShedBackoff  = 5 * time.Second
)

func (c *Config) defaults() {
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
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = DefaultProbeInterval
	}
	if c.MaxStrikes <= 0 {
		c.MaxStrikes = DefaultMaxStrikes
	}
	if c.EjectBackoff <= 0 {
		c.EjectBackoff = DefaultEjectBackoff
	}
	if c.StallTimeout <= 0 {
		c.StallTimeout = DefaultStallTimeout
	}
	if c.MaxReshards <= 0 {
		c.MaxReshards = DefaultMaxReshards
	}
	if c.ShedRetries <= 0 {
		c.ShedRetries = DefaultShedRetries
	}
	if c.ShedBackoff <= 0 {
		c.ShedBackoff = DefaultShedBackoff
	}
	if c.HTTPClient == nil {
		c.HTTPClient = http.DefaultClient
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// Gateway is the scatter-gather coordinator. Build one with New; it is
// safe for concurrent use.
type Gateway struct {
	cfg      Config
	reg      *metrics.Registry
	client   *http.Client
	set      *replicaSet
	front    *noised.Front
	mux      *http.ServeMux
	started  time.Time
	instance string
}

// New builds a gateway from cfg (see Config for zero-value defaults).
func New(cfg Config) (*Gateway, error) {
	cfg.defaults()
	if len(cfg.Replicas) == 0 {
		return nil, noiseerr.Invalidf("noisegw: at least one replica required")
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	g := &Gateway{
		cfg:      cfg,
		reg:      reg,
		client:   cfg.HTTPClient,
		started:  time.Now(),
		instance: noised.NewInstanceID(),
	}
	g.set = newReplicaSet(g, cfg.Replicas)
	g.front = &noised.Front{
		Name:              "noisegw",
		Instance:          g.instance,
		Reg:               reg,
		Gate:              noised.NewGate("noisegw", "gateway", cfg.MaxInflight, cfg.MaxQueue, reg.Gauge(mGwInflight), reg.Gauge(mGwQueueDepth)),
		RetryAfter:        cfg.RetryAfter,
		Heartbeat:         cfg.Heartbeat,
		MaxBodyBytes:      cfg.MaxBodyBytes,
		MaxRequestTimeout: cfg.MaxRequestTimeout,
		DrainTimeout:      cfg.DrainTimeout,
		Counters: noised.Counters{
			Requests:           mGwRequests,
			RejectedDraining:   mGwRejectedDraining,
			RejectedValidation: mGwRejectedValidation,
			RejectedQueue:      mGwRejectedQueue,
		},
	}
	g.mux = http.NewServeMux()
	g.mux.HandleFunc("POST "+noised.Analyze.Path, func(w http.ResponseWriter, r *http.Request) {
		noised.Handle(g.front, noised.Analyze, &netRequest{g: g}, w, r)
	})
	g.mux.HandleFunc("POST "+noised.AnalyzePath.Path, func(w http.ResponseWriter, r *http.Request) {
		noised.Handle(g.front, noised.AnalyzePath, &pathRequest{g: g}, w, r)
	})
	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
	g.mux.HandleFunc("GET /readyz", g.handleReadyz)
	g.mux.HandleFunc("GET /metrics", g.handleMetrics)
	return g, nil
}

// Handler returns the gateway's HTTP handler, for mounting under
// httptest or a custom http.Server.
func (g *Gateway) Handler() http.Handler { return g.mux }

// Draining reports whether the gateway has begun its graceful drain.
func (g *Gateway) Draining() bool { return g.front.Gate.Draining() }
