// Package clarinet is the tool-level API of the reproduction, named
// after the Motorola noise-analysis tool the paper's methods shipped in
// (ref [7]). It fans per-net delay-noise analyses across a worker pool,
// shares characterization work between nets through the single-flight
// caches of an internal/engine Session, instruments the run with
// counters and timers, and renders reports.
package clarinet

import (
	"runtime"

	"repro/internal/delaynoise"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/noiseerr"
	"repro/internal/resilience"
)

// Config selects the analysis variant for a run.
type Config struct {
	Hold  delaynoise.HoldModel
	Align delaynoise.AlignMethod
	// PrecharGrid is the exhaustive-search grid used when building
	// alignment tables on demand (default 17).
	PrecharGrid int
	// Workers bounds the nets analyzed at once, not CPU use. Zero
	// selects runtime.GOMAXPROCS(0), one per available core. Negative
	// values are rejected by New. Inside a net, independent solves fork
	// onto CPUs no analysis holds (internal/spare), so a pool with fewer
	// nets in flight than cores still uses the idle ones.
	Workers int
	// Resilience configures the convergence rescue ladder (solver
	// homotopy, timestep halving, prechar fallback) and the per-net
	// deadline budget. The zero value disables every rung; see
	// resilience.DefaultPolicy for the recommended production ladder.
	// Fallback retries count in the nets.fallback metric; nets that
	// exhaust Resilience.NetTimeout fail with the noiseerr.ErrDeadline
	// class and count in nets.deadline while the batch keeps running.
	Resilience resilience.Policy
	// Metrics receives run instrumentation (nets analyzed, cache
	// hit/miss counts, simulation counters, per-stage timers). New
	// installs a fresh registry when nil. Ignored when Session is set.
	Metrics *metrics.Registry
	// Session, when non-nil, backs the tool with an existing engine
	// session instead of building a private one; the tool then shares
	// the session's library, caches, and registry with every other view
	// over it (e.g. a second Tool with other analysis options).
	// PrecharGrid is then ignored.
	Session *engine.Session
}

func (c *Config) defaults() {
	if c.PrecharGrid == 0 {
		c.PrecharGrid = 17
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
}

// ParseHold resolves a holding-model name as it appears on CLI flags
// and the noised wire ("thevenin" | "transient").
func ParseHold(v string) (delaynoise.HoldModel, error) {
	switch v {
	case "thevenin":
		return delaynoise.HoldThevenin, nil
	case "transient":
		return delaynoise.HoldTransient, nil
	}
	return 0, noiseerr.Invalidf("clarinet: unknown hold model %q (want thevenin|transient)", v)
}

// ParseAlign resolves an alignment-method name as it appears on CLI
// flags and the noised wire ("exhaustive" | "input" | "prechar").
func ParseAlign(v string) (delaynoise.AlignMethod, error) {
	switch v {
	case "exhaustive":
		return delaynoise.AlignExhaustive, nil
	case "input":
		return delaynoise.AlignReceiverInput, nil
	case "prechar":
		return delaynoise.AlignPrechar, nil
	}
	return 0, noiseerr.Invalidf("clarinet: unknown alignment method %q (want exhaustive|input|prechar)", v)
}

// NetReport is the per-net analysis outcome. Quality records how the
// result was obtained (exact first pass, solver rescue, or prechar
// fallback); it is meaningful only when Err is nil.
type NetReport struct {
	Name    string
	Res     *delaynoise.Result
	Quality resilience.Quality
	Err     error
}

// Tool is a worker-pool view over an engine session.
type Tool struct {
	Lib *device.Library
	Cfg Config

	session *engine.Session
}

// New builds a tool around a cell library. It rejects negative worker
// counts; zero workers means one per available core.
func New(lib *device.Library, cfg Config) (*Tool, error) {
	if cfg.Workers < 0 {
		return nil, noiseerr.Invalidf("clarinet: negative worker count %d", cfg.Workers)
	}
	cfg.defaults()
	s := cfg.Session
	if s == nil {
		s = engine.New(engine.Config{
			Lib:         lib,
			Metrics:     cfg.Metrics,
			PrecharGrid: cfg.PrecharGrid,
		})
	}
	if lib == nil {
		lib = s.Lib()
	}
	return &Tool{Lib: lib, Cfg: cfg, session: s}, nil
}

// MustNew is New for callers with a known-good configuration (tests,
// examples); it panics on error.
func MustNew(lib *device.Library, cfg Config) *Tool {
	t, err := New(lib, cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Session returns the tool's underlying engine session.
func (t *Tool) Session() *engine.Session { return t.session }

// Metrics returns the run's instrumentation registry.
func (t *Tool) Metrics() *metrics.Registry { return t.session.Metrics() }

// Workers returns the resolved parallelism of the tool.
func (t *Tool) Workers() int { return t.Cfg.Workers }

// analysisOptions assembles the per-net options, wiring in the session's
// shared caches and instrumentation.
func (t *Tool) analysisOptions() delaynoise.Options {
	return t.session.Bind(delaynoise.Options{Hold: t.Cfg.Hold, Align: t.Cfg.Align})
}
