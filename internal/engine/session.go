// Package engine is the shared session core under the batch tool
// (internal/clarinet) and the layers built on it. A Session owns the
// technology, its cell library, the metrics registry, and the two
// single-flight caches — alignment pre-characterization tables and
// driver characterizations. Every memo behind them is bounded by
// internal/memo's one rule and reports its resident entries as a
// cache.*.entries gauge, so a resident session's memory does not grow
// with the number of distinct nets it has analyzed.
//
// Front ends are thin views: clarinet.Tool fans a Session across a
// worker pool with its own analysis options. Two views over one Session
// share every cache and counter; the Session is safe for concurrent use.
package engine

import (
	"context"

	"repro/internal/align"
	"repro/internal/delaynoise"
	"repro/internal/device"
	"repro/internal/memo"
	"repro/internal/metrics"
	"repro/internal/noiseerr"
)

// Metric-name constant table (enforced by noiselint/metricflow): the
// session's single-flight table cache reports its hit ratio and its
// resident entry count under these names.
const (
	mCacheTablesHit     = "cache.tables.hit"
	mCacheTablesMiss    = "cache.tables.miss"
	mCacheTablesEntries = "cache.tables.entries"
)

// Config assembles a Session. The zero value is usable: it selects the
// default 0.18 um-class technology and a fresh library and registry.
type Config struct {
	// Tech is the process technology (nil selects device.Default180).
	// Ignored when Lib is non-nil: the library's technology wins.
	Tech *device.Technology
	// Lib is the cell library (nil builds device.NewLibrary(Tech)).
	Lib *device.Library
	// Metrics receives run instrumentation (cache hit/miss counts,
	// simulation counters, per-stage timers). Nil installs a fresh
	// registry.
	Metrics *metrics.Registry
	// PrecharGrid is the exhaustive-search grid used when building
	// alignment tables on demand. Zero keeps align.DefaultConfig's grid.
	PrecharGrid int
}

// tableKey identifies one receiver pre-characterization.
type tableKey struct {
	cell   string
	rising bool
}

// Session owns the shared state of an analysis run: technology, library,
// instrumentation, and the single-flight caches. Build one with New and
// hand it to as many front-end views as needed.
type Session struct {
	lib     *device.Library
	metrics *metrics.Registry
	grid    int

	tables *memo.Cache[tableKey, *align.Table]
	chars  *delaynoise.CharCache
}

// New builds a session from cfg (see Config for zero-value defaults).
func New(cfg Config) *Session {
	lib := cfg.Lib
	if lib == nil {
		tech := cfg.Tech
		if tech == nil {
			tech = device.Default180()
		}
		lib = device.NewLibrary(tech)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &Session{
		lib:     lib,
		metrics: reg,
		grid:    cfg.PrecharGrid,
		tables:  memo.New[tableKey, *align.Table](reg.Gauge(mCacheTablesEntries)),
		chars:   delaynoise.NewCharCache(reg),
	}
}

// Lib returns the session's cell library.
func (s *Session) Lib() *device.Library { return s.lib }

// Metrics returns the session's instrumentation registry.
func (s *Session) Metrics() *metrics.Registry { return s.metrics }

// Bind wires the session's caches and registry into per-run analysis
// options, leaving every other knob untouched.
func (s *Session) Bind(opt delaynoise.Options) delaynoise.Options {
	opt.Chars = s.chars
	opt.Metrics = s.metrics
	return opt
}

// Table returns (building on first use, with single-flight semantics
// under concurrency) the alignment pre-characterization of a receiver
// cell and victim direction. The building corner searches run on the
// first caller's context.
func (s *Session) Table(ctx context.Context, recv *device.Cell, victimRising bool) (*align.Table, error) {
	tab, hit, err := s.tables.Do(tableKey{recv.Name, victimRising}, func() (*align.Table, error) {
		cfg := align.DefaultConfig(recv.Tech)
		if s.grid > 0 {
			cfg.Grid = s.grid
		}
		return align.PrecharacterizeContext(ctx, recv, victimRising, cfg)
	})
	if hit {
		s.metrics.Counter(mCacheTablesHit).Inc()
	} else {
		s.metrics.Counter(mCacheTablesMiss).Inc()
	}
	if err != nil {
		return nil, noiseerr.InStage(noiseerr.StageCharacterize, err)
	}
	return tab, nil
}

// TableCount reports how many alignment tables the session has built.
func (s *Session) TableCount() int { return s.tables.Len() }
