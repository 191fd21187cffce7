// Package engine is the shared session core under the batch tool
// (internal/clarinet) and the layers built on it. A Session owns the
// technology, its cell library, the metrics registry, and the three
// single-flight caches — alignment pre-characterization tables, driver
// characterizations, and PRIMA reduced-order models.
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
// session's single-flight table cache reports its hit ratio under
// these names.
const (
	mCacheTablesHit  = "cache.tables.hit"
	mCacheTablesMiss = "cache.tables.miss"
)

// Config assembles a Session. The zero value is usable: it selects the
// default 0.18 um-class technology, a fresh library and registry, and
// enables every cache at its default resolution.
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
	// CharCacheRes is the relative bucket resolution of the shared
	// driver-characterization cache (zero selects
	// delaynoise.DefaultCharBucketRes). Negative disables the cache.
	CharCacheRes float64
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
	lib      *device.Library
	metrics  *metrics.Registry
	grid     int
	topology uint64

	tables *memo.Cache[tableKey, *align.Table]
	chars  *delaynoise.CharCache
	roms   *delaynoise.ROMCache
}

// SetTopology records the workload's stage-graph topology hash in the
// session's warm-store identity (see WarmIdentity). Per-net runs leave
// it zero; path mode sets it to pathnoise.TopologyHash of the request's
// path set, so per-net and path runs address disjoint warm-store keys
// and can never serve each other a stale alignment-table snapshot. Set
// it before LoadWarm/SaveWarm; it is not synchronized against them.
func (s *Session) SetTopology(h uint64) { s.topology = h }

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
	s := &Session{
		lib:     lib,
		metrics: reg,
		grid:    cfg.PrecharGrid,
		tables:  memo.New[tableKey, *align.Table](),
		roms:    delaynoise.NewROMCache(reg),
	}
	if cfg.CharCacheRes >= 0 {
		s.chars = delaynoise.NewCharCache(cfg.CharCacheRes, reg)
	}
	return s
}

// Lib returns the session's cell library.
func (s *Session) Lib() *device.Library { return s.lib }

// Metrics returns the session's instrumentation registry.
func (s *Session) Metrics() *metrics.Registry { return s.metrics }

// Bind wires the session's caches and registry into per-run analysis
// options, leaving every other knob untouched.
func (s *Session) Bind(opt delaynoise.Options) delaynoise.Options {
	opt.Chars = s.chars
	opt.ROMs = s.roms
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
